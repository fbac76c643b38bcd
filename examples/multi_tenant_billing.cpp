/**
 * @file
 * A multi-tenant billing day: three tenants submit functions to a
 * crowded machine; every invocation is probed, priced and recorded in
 * the BillingLedger; the run ends with per-tenant dollar statements
 * and the platform's aggregate discount.
 */

#include <iostream>
#include <map>

#include "common/text_table.h"
#include "core/billing.h"
#include "core/calibration.h"
#include "workload/invoker.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** A tenant and their deployed functions. */
struct Tenant
{
    std::string name;
    std::vector<const workload::FunctionSpec *> functions;
};

} // namespace

int
main()
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");

    printBanner(std::cout, "Multi-tenant billing demo");

    std::cout << "Calibrating provider tables...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.machine = machine;
    ccfg.levels = {4, 10, 16, 22};
    const auto tables = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(tables);
    const pricing::PricingEngine pricer(model);

    const std::vector<Tenant> tenants = {
        {"acme-imaging",
         {&workload::functionByName("thum-py"),
          &workload::functionByName("recogn-py")}},
        {"webshop-inc",
         {&workload::functionByName("dyn-py"),
          &workload::functionByName("pay-nj"),
          &workload::functionByName("cur-nj")}},
        {"fintech-llc",
         {&workload::functionByName("aes-go"),
          &workload::functionByName("auth-go"),
          &workload::functionByName("float-py")}},
    };

    // Solo baselines (the ideal-price oracle, for reporting only).
    std::map<std::string, pricing::SoloBaseline> solo;
    for (const Tenant &tenant : tenants)
        for (const auto *spec : tenant.functions)
            solo.emplace(spec->name,
                         pricing::measureSoloBaseline(machine, *spec));

    // Background churn: 20 co-runners on their own cores.
    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 20;
    for (unsigned cpu = 4; cpu < 24; ++cpu)
        icfg.cpuPool.push_back(cpu);
    icfg.seed = 99;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(0.1);

    // The billing day: each tenant function runs a few invocations.
    pricing::BillingLedger ledger;
    Rng rng(2026);
    for (const Tenant &tenant : tenants) {
        for (const auto *spec : tenant.functions) {
            for (int rep = 0; rep < 3; ++rep) {
                auto task = workload::makeInvocation(*spec, rng);
                task->setAffinity({0, 1, 2, 3});
                const auto done = engine.runToCompletion(std::move(task));
                const auto quote =
                    pricer.quote(done->counters(), pricing::readProbe(*done),
                                 spec->language, solo.at(spec->name));
                ledger.record(tenant.name, spec->name, done->counters(),
                              quote, spec->memoryFootprint);
            }
        }
    }

    // Statements.
    for (const Tenant &tenant : tenants) {
        std::cout << "\nStatement for " << tenant.name << ":\n";
        TextTable table({"function", "cpu ms", "GiB", "commercial $",
                         "litmus $", "discount"});
        double commercial = 0, litmus = 0;
        for (const auto *rec : ledger.tenantRecords(tenant.name)) {
            commercial += rec->commercialUsd;
            litmus += rec->litmusUsd;
            table.addRow(
                {rec->function,
                 TextTable::num(rec->cpuSeconds * 1e3, 2),
                 TextTable::num(rec->memoryGiB, 2),
                 TextTable::num(rec->commercialUsd * 1e6, 2) + "u",
                 TextTable::num(rec->litmusUsd * 1e6, 2) + "u",
                 TextTable::num(100 * rec->discount(), 1) + "%"});
        }
        table.print(std::cout);
        std::cout << "  total: " << TextTable::num(commercial * 1e6, 2)
                  << "u commercial -> " << TextTable::num(litmus * 1e6, 2)
                  << "u with Litmus\n";
    }

    std::cout << "\nPlatform aggregate discount: "
              << TextTable::num(100 * ledger.aggregateDiscount(), 2)
              << "% across " << ledger.records().size()
              << " invocations ($ figures in micro-dollars)\n";
    return 0;
}
