/**
 * @file
 * Name tables (common/name_table.h) and every fixed name set built on
 * them: each spelling a user may type parses to its value through the
 * path that reads it, each canonical name prints as it always has, and
 * an unknown name fails listing every canonical name of its set.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/fault_plan.h"
#include "common/name_table.h"
#include "core/table_io.h"
#include "scenario/scenario.h"
#include "scenario/traffic_model.h"
#include "workload/runtime_startup.h"
#include "workload/traffic_gen.h"

namespace litmus
{
namespace
{

using cluster::DispatchPolicy;
using cluster::FaultBilling;
using cluster::RetryPolicy;
using scenario::ScenarioSpec;
using workload::GeneratorKind;
using workload::Language;

template <typename T>
struct Case
{
    const char *spelling;
    T value;
};

/** Every spelling a user may type, with the value it names. */
const Case<DispatchPolicy> kPolicyCases[] = {
    {"round-robin", DispatchPolicy::RoundRobin},
    {"roundrobin", DispatchPolicy::RoundRobin},
    {"rr", DispatchPolicy::RoundRobin},
    {"least-loaded", DispatchPolicy::LeastLoaded},
    {"leastloaded", DispatchPolicy::LeastLoaded},
    {"ll", DispatchPolicy::LeastLoaded},
    {"warmth-aware", DispatchPolicy::WarmthAware},
    {"warmth", DispatchPolicy::WarmthAware},
    {"cost-aware", DispatchPolicy::CostAware},
    {"cost", DispatchPolicy::CostAware},
};
const Case<RetryPolicy> kRetryCases[] = {
    {"drop", RetryPolicy::Drop},
    {"none", RetryPolicy::Drop},
    {"retry-once", RetryPolicy::RetryOnce},
    {"once", RetryPolicy::RetryOnce},
    {"retry-backoff", RetryPolicy::RetryBackoff},
    {"backoff", RetryPolicy::RetryBackoff},
};
const Case<FaultBilling> kBillingCases[] = {
    {"tenant-pays", FaultBilling::TenantPays},
    {"tenant", FaultBilling::TenantPays},
    {"provider-absorbs", FaultBilling::ProviderAbsorbs},
    {"provider", FaultBilling::ProviderAbsorbs},
};
const char *const kTrafficCases[] = {"azure", "burst", "diurnal",
                                     "poisson", "trace"};
const Case<Language> kLanguageTokenCases[] = {
    {"python", Language::Python},
    {"nodejs", Language::NodeJs},
    {"go", Language::Go},
};
const Case<GeneratorKind> kGeneratorTokenCases[] = {
    {"ct", GeneratorKind::CtGen},
    {"mb", GeneratorKind::MbGen},
};
const Case<bool> kBoolCases[] = {
    {"true", true}, {"yes", true}, {"on", true}, {"1", true},
    {"false", false}, {"no", false}, {"off", false}, {"0", false},
};

TEST(NameTable, EverySpellingParsesToItsValue)
{
    for (const auto &[spelling, value] : kPolicyCases)
        EXPECT_EQ(ScenarioSpec().set("policy", spelling).policy, value)
            << spelling;
    for (const auto &[spelling, value] : kRetryCases)
        EXPECT_EQ(ScenarioSpec().set("fault.retry", spelling).fault.retry,
                  value)
            << spelling;
    for (const auto &[spelling, value] : kBillingCases)
        EXPECT_EQ(
            ScenarioSpec().set("fault.billing", spelling).fault.billing,
            value)
            << spelling;
    for (const char *model : kTrafficCases) {
        EXPECT_EQ(ScenarioSpec().set("traffic", model).traffic.model,
                  model);
        EXPECT_EQ(nameOf(scenario::kTrafficModels,
                         parseName(scenario::kTrafficModels, model, "")),
                  model);
    }
    for (const auto &[token, lang] : kLanguageTokenCases)
        EXPECT_EQ(parseName(pricing::kLanguageTokens, token, "language"),
                  lang);
    for (const auto &[token, gen] : kGeneratorTokenCases)
        EXPECT_EQ(parseName(pricing::kGeneratorTokens, token, "generator"),
                  gen);
    for (const auto &[spelling, value] : kBoolCases) {
        EXPECT_EQ(ScenarioSpec().set("calibrate", spelling).calibrate,
                  value)
            << spelling;
        EXPECT_EQ(ScenarioSpec().set("probes", spelling).probes, value)
            << spelling;
    }
}

TEST(NameTable, CanonicalNamesPrintAsBefore)
{
    EXPECT_EQ(nameListing(cluster::kDispatchPolicies),
              "round-robin, least-loaded, warmth-aware, cost-aware");
    EXPECT_EQ(nameListing(cluster::kRetryPolicies),
              "drop, retry-once, retry-backoff");
    EXPECT_EQ(nameListing(cluster::kFaultBillings),
              "tenant-pays, provider-absorbs");
    EXPECT_EQ(nameListing(scenario::kTrafficModels),
              "azure, burst, diurnal, poisson, trace");
    EXPECT_EQ(nameListing(workload::kLanguageNames), "Python, Node.js, Go");
    EXPECT_EQ(workload::languageName(Language::NodeJs), "Node.js");
    EXPECT_EQ(nameListing(workload::kLanguageSuffixes), "py, nj, go");
    EXPECT_EQ(nameListing(pricing::kLanguageTokens), "python, nodejs, go");
    EXPECT_EQ(nameListing(workload::kGeneratorNames), "CT-Gen, MB-Gen");
    EXPECT_EQ(nameListing(pricing::kGeneratorTokens), "ct, mb");

    // canonical() keeps one entry per value, in table order, and
    // nameOf prints the first spelling whichever spelling parsed.
    const auto policies = canonical(cluster::kDispatchPolicies);
    ASSERT_EQ(policies.size(), 4u);
    EXPECT_EQ(policies[3].value, DispatchPolicy::CostAware);
    for (const auto &[spelling, value] : kPolicyCases)
        EXPECT_EQ(nameOf(cluster::kDispatchPolicies, value),
                  policies[static_cast<std::size_t>(value)].name);
}

TEST(NameTable, JoinNamesListsInOrder)
{
    EXPECT_EQ(joinNames(std::vector<std::string>{}), "");
    EXPECT_EQ(joinNames(std::vector<std::string>{"a"}), "a");
    EXPECT_EQ(joinNames(std::vector<std::string>{"b", "a", "c"}),
              "b, a, c");
}

TEST(NameTableDeath, UnknownNamesListEveryCanonicalName)
{
    const auto dies = [](const char *key, const char *value,
                         const std::string &message) {
        EXPECT_EXIT((void)ScenarioSpec().set(key, value, {"s.scenario", 4}),
                    ::testing::ExitedWithCode(1), "s\\.scenario:4: " + message)
            << key;
    };
    dies("policy", "fastest",
         "policyByName: unknown dispatch policy 'fastest' \\(known: "
         "round-robin, least-loaded, warmth-aware, cost-aware\\)");
    dies("fault.retry", "forever",
         "retryPolicyByName: unknown retry policy 'forever' \\(known: "
         "drop, retry-once, retry-backoff\\)");
    dies("fault.billing", "nobody",
         "faultBillingByName: unknown fault billing mode 'nobody' "
         "\\(known: tenant-pays, provider-absorbs\\)");
    dies("traffic", "fractal",
         "unknown traffic model 'fractal' \\(known: azure, burst, "
         "diurnal, poisson, trace\\)");
    dies("calibrate", "maybe",
         "scenario key 'calibrate' expects a boolean, got 'maybe' "
         "\\(known: true, false\\)");
    // An empty spelling is no spelling.
    dies("probes", "",
         "scenario key 'probes' expects a boolean, got '' \\(known: "
         "true, false\\)");

    EXPECT_EXIT((void)parseName(pricing::kLanguageTokens, "cobol",
                                "unknown language", {"t.txt", 2}),
                ::testing::ExitedWithCode(1),
                "t\\.txt:2: unknown language 'cobol' \\(known: python, "
                "nodejs, go\\)");
    EXPECT_EXIT((void)parseName(pricing::kGeneratorTokens, "CT-Gen",
                                "unknown generator"),
                ::testing::ExitedWithCode(1),
                "fatal: unknown generator 'CT-Gen' \\(known: ct, mb\\)");
}

/** True while a faultKindName(FaultKind) overload is visible. */
template <typename Kind>
concept HasFaultKindName = requires(Kind kind) { faultKindName(kind); };

TEST(NameTable, FaultKindNameIsGone)
{
    // Nothing printed a fault kind: the converter was dead code.
    static_assert(!HasFaultKindName<cluster::FaultKind>);
}

} // namespace
} // namespace litmus
