/**
 * @file
 * Figure 9: correlation between the Python startup's slowdown and the
 * reference applications' slowdown, per traffic generator and time
 * component.
 *
 * Paper: linear fits with R^2 between 0.836 and 0.989; distinct CT
 * and MB lines.
 */

#include <iostream>

#include "bench_util.h"
#include "core/discount_model.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

int
main()
{
    printBanner(std::cout, "Figure 9: startup-vs-reference slowdown "
                           "regressions (Python startup)");

    std::cout << "calibrating...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    TextTable table({"component", "generator", "slope", "intercept",
                     "R^2"});
    double minR2 = 1.0;
    for (auto comp : {pricing::Component::Private,
                      pricing::Component::Shared,
                      pricing::Component::Total}) {
        const char *compName =
            comp == pricing::Component::Private
                ? "Tprivate"
                : (comp == pricing::Component::Shared ? "Tshared"
                                                      : "Ttotal");
        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            const LinearFit &fit =
                model.perfFit(Language::Python, gen, comp);
            minR2 = std::min(minR2, fit.r2());
            table.addRow({compName, workload::generatorName(gen),
                          TextTable::num(fit.slope()),
                          TextTable::num(fit.intercept()),
                          TextTable::num(fit.r2())});
        }
    }
    table.print(std::cout);

    std::cout << "\npaper=    R^2 in 0.836-0.989 across the six fits\n"
              << "measured= minimum R^2 " << TextTable::num(minR2)
              << "\n";
    return 0;
}
