/**
 * @file
 * Microbenchmarks (google-benchmark) of the pricing hot paths: the
 * operations a provider would run inline with production traffic.
 * The Litmus runtime cost per invocation is one probe read plus one
 * discount estimation — these must be trivially cheap.
 */

#include <benchmark/benchmark.h>

#include "core/discount_model.h"
#include "core/pricing_model.h"
#include "sim/contention.h"
#include "sim/machine_catalog.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

namespace
{

/** Synthetic calibrated model (no simulation needed). */
const pricing::DiscountModel &
model()
{
    static const pricing::DiscountModel m = [] {
        pricing::CalibrationProfile profile;
        pricing::CongestionTable &table = profile.congestion;
        for (Language lang : workload::allLanguages()) {
            pricing::ProbeReading base;
            base.privCpi = 0.7;
            base.sharedCpi = 0.2;
            base.instructions = 45e6;
            base.machineL3MissPerUs = 1.0;
            table.setBaseline(lang, base);
        }
        for (unsigned level = 2; level <= 26; level += 2) {
            const double x = 1.0 + 0.01 * level;
            pricing::CongestionTable::Row row;
            row.level = level;
            row.reference.privSlowdown = 1.0 + 0.003 * level;
            row.reference.sharedSlowdown = 1.0 + 0.06 * level;
            row.reference.totalSlowdown = 1.0 + 0.012 * level;
            pricing::CongestionEntry e;
            e.privSlowdown = 1.0 + 0.002 * level;
            e.sharedSlowdown = 1.0 + 0.05 * level;
            e.totalSlowdown = x;
            e.l3MissPerUs = 20.0 * x;
            row.startups.assign(workload::allLanguages().size(), e);
            table.add(GeneratorKind::CtGen, row);
            for (pricing::CongestionEntry &startup : row.startups)
                startup.l3MissPerUs = 2000.0 * x;
            table.add(GeneratorKind::MbGen, row);
        }
        return pricing::DiscountModel(profile);
    }();
    return m;
}

pricing::ProbeReading
reading()
{
    pricing::ProbeReading r;
    r.privCpi = 0.72;
    r.sharedCpi = 0.26;
    r.instructions = 45e6;
    r.machineL3MissPerUs = 140.0;
    return r;
}

void
BM_DiscountEstimate(benchmark::State &state)
{
    const auto &m = model();
    const auto r = reading();
    for (auto _ : state) {
        auto est = m.estimate(r, Language::Python);
        benchmark::DoNotOptimize(est);
    }
}
BENCHMARK(BM_DiscountEstimate);

void
BM_PriceQuote(benchmark::State &state)
{
    const auto &m = model();
    const pricing::PricingEngine pricer(m);
    const auto r = reading();
    sim::TaskCounters c;
    c.instructions = 3e8;
    c.cycles = 3.4e8;
    c.stallSharedCycles = 0.5e8;
    pricing::SoloBaseline solo{0.95, 0.12};
    for (auto _ : state) {
        auto q = pricer.quote(c, r, Language::Python, solo);
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_PriceQuote);

void
BM_ProbeRead(benchmark::State &state)
{
    sim::ProbeCapture cap;
    cap.started = cap.complete = true;
    cap.taskAtEnd.instructions = 45e6;
    cap.taskAtEnd.cycles = 60e6;
    cap.taskAtEnd.stallSharedCycles = 12e6;
    cap.machineAtEnd.l3Misses = 4e5;
    cap.machineAtEnd.time = 20e-3;
    for (auto _ : state) {
        auto r = pricing::readProbe(cap);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ProbeRead);

void
BM_ContentionSolve(benchmark::State &state)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    const sim::ContentionSolver solver(cfg);
    std::vector<sim::SolverInput> inputs(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i].demand.cpi0 = 0.7;
        inputs[i].demand.l2Mpki = 5.0 + static_cast<double>(i % 7);
        inputs[i].demand.l3WorkingSet = (2 + i % 5) * 1024 * 1024;
        inputs[i].demand.l3MissBase = 0.3;
        inputs[i].demand.mlp = 4.0;
    }
    for (auto _ : state) {
        auto result = solver.solve(inputs, cfg.baseFrequency);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ContentionSolve)->Arg(8)->Arg(32)->Arg(64);

void
BM_EngineQuantum(benchmark::State &state)
{
    // Cost of one simulated quantum with N busy hardware threads —
    // the simulator's own hot path.
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    const auto n = static_cast<unsigned>(state.range(0));
    for (unsigned i = 0; i < n; ++i) {
        sim::ResourceDemand d;
        d.cpi0 = 0.7;
        d.l2Mpki = 4.0 + i % 5;
        d.l3WorkingSet = (2 + i % 4) * 1024 * 1024;
        d.l3MissBase = 0.3;
        d.mlp = 4.0;
        // Built by append: GCC 12's -O3 -Wrestrict false-positives on
        // the operator+ temporary chain.
        std::string name = "t";
        name += std::to_string(i);
        engine.add(std::make_unique<sim::Task>(std::move(name), d));
    }
    for (auto _ : state)
        engine.run(50e-6);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineQuantum)->Arg(8)->Arg(32);

} // namespace

BENCHMARK_MAIN();
