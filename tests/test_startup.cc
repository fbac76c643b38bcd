/**
 * @file
 * Tests for the language-runtime startup models (the probe substrate).
 */

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "workload/runtime_startup.h"
#include "sim/machine_catalog.h"

namespace litmus::workload
{
namespace
{

TEST(Startup, AllLanguagesListed)
{
    EXPECT_EQ(allLanguages().size(), 3u);
}

TEST(Startup, Suffixes)
{
    EXPECT_EQ(nameOf(kLanguageSuffixes, Language::Python), "py");
    EXPECT_EQ(nameOf(kLanguageSuffixes, Language::NodeJs), "nj");
    EXPECT_EQ(nameOf(kLanguageSuffixes, Language::Go), "go");
    EXPECT_EQ(languageName(Language::Python), "Python");
}

TEST(Startup, ProgramsNonEmptyAndValid)
{
    for (Language lang : allLanguages()) {
        const std::vector<sim::Phase> &p = startupProgram(lang);
        EXPECT_GE(p.size(), 3u) << languageName(lang);
        for (const sim::Phase &phase : p)
            EXPECT_NO_FATAL_FAILURE(phase.validate());
    }
}

TEST(Startup, ProbeWindowWithinStartup)
{
    for (Language lang : allLanguages()) {
        EXPECT_LT(probeWindow(lang),
                  sim::totalInstructions(startupProgram(lang)))
            << languageName(lang);
        EXPECT_GT(probeWindow(lang), 0.0);
    }
}

TEST(Startup, PythonWindowMatchesPaper)
{
    // Section 7.1: the first 45 million instructions.
    EXPECT_DOUBLE_EQ(probeWindow(Language::Python), 45e6);
}

TEST(Startup, ProgramsAreSingletons)
{
    // Same-language startups must be identical — the property the
    // Litmus test leans on.
    EXPECT_EQ(&startupProgram(Language::Python),
              &startupProgram(Language::Python));
}

TEST(Startup, RelativeDurations)
{
    // Figure 6: Node.js startup is by far the longest, Go the
    // shortest; measure solo durations on the reference machine.
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    std::map<Language, Seconds> wall;
    for (Language lang : allLanguages()) {
        const auto run = sim::Engine(cfg).runToCompletion(
            std::make_unique<sim::Task>("s", startupProgram(lang)));
        wall[lang] = run->completionTime() - run->launchTime();
    }
    EXPECT_GT(wall[Language::NodeJs], 3 * wall[Language::Python]);
    EXPECT_GT(wall[Language::Python], 2 * wall[Language::Go]);
    // Rough absolute scale (paper: ~19 ms / ~97 ms / ~6 ms).
    EXPECT_NEAR(wall[Language::Python], 19e-3, 12e-3);
    EXPECT_NEAR(wall[Language::NodeJs], 97e-3, 50e-3);
    EXPECT_NEAR(wall[Language::Go], 6e-3, 5e-3);
}

TEST(Startup, MemoryHeavyPrefix)
{
    // The probe window must cover memory-intensive phases: average
    // MPKI over the window should be substantial.
    for (Language lang : allLanguages()) {
        const Instructions window = probeWindow(lang);
        Instructions seen = 0;
        double weightedMpki = 0;
        for (const sim::Phase &phase : startupProgram(lang)) {
            if (seen >= window)
                break;
            const Instructions take =
                std::min(phase.instructions, window - seen);
            weightedMpki += take * phase.demand.l2Mpki;
            seen += take;
        }
        EXPECT_GT(weightedMpki / window, 8.0) << languageName(lang);
    }
}

} // namespace
} // namespace litmus::workload
