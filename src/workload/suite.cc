#include "workload/suite.h"

#include <unordered_map>

#include "common/logging.h"

namespace litmus::workload
{

namespace
{

/** Role of a suite member in the evaluation. */
enum class Role
{
    Ref,  // reference set (Table 1 asterisk)
    Test, // evaluation test set (Figure 11 x-axis)
    Pool, // co-runner pool only
};

/**
 * Build one spec with a single body phase.
 *
 * @param name      suite name with language suffix
 * @param lang      runtime language
 * @param role      reference / test / pool
 * @param minstr    body length in millions of instructions
 * @param cpi0      base private CPI of the body
 * @param mpki      L2 misses per kilo-instruction
 * @param ws_mib    L3 working set (MiB)
 * @param miss_base fraction of L2 misses missing L3 at full share
 * @param mlp       memory-level parallelism
 * @param mem_mib   billing memory footprint (MiB)
 */
FunctionSpec
fn(const char *name, Language lang, Role role, double minstr,
   double cpi0, double mpki, double ws_mib, double miss_base, double mlp,
   unsigned mem_mib)
{
    FunctionSpec spec;
    spec.name = name;
    spec.language = lang;
    spec.reference = role == Role::Ref;
    spec.testSet = role == Role::Test;

    sim::Phase body;
    body.name = "body";
    body.instructions = minstr * 1e6;
    body.demand.cpi0 = cpi0;
    body.demand.l2Mpki = mpki;
    body.demand.l3WorkingSet =
        static_cast<Bytes>(ws_mib * 1024.0 * 1024.0);
    body.demand.l3MissBase = miss_base;
    body.demand.mlp = mlp;
    spec.body.push_back(std::move(body));

    spec.memoryFootprint = static_cast<Bytes>(mem_mib) * 1024 * 1024;
    spec.validate();
    return spec;
}

/** One body phase for the multi-phase specs. */
sim::Phase
bodyPhase(const char *name, double minstr, double cpi0, double mpki,
          double ws_mib, double miss_base, double mlp)
{
    sim::Phase p;
    p.name = name;
    p.instructions = minstr * 1e6;
    p.demand.cpi0 = cpi0;
    p.demand.l2Mpki = mpki;
    p.demand.l3WorkingSet = static_cast<Bytes>(ws_mib * 1024.0 * 1024.0);
    p.demand.l3MissBase = miss_base;
    p.demand.mlp = mlp;
    p.validate();
    return p;
}

/** Build a spec with an explicit multi-phase body. */
FunctionSpec
fnMulti(const char *name, Language lang, Role role,
        std::vector<sim::Phase> body, unsigned mem_mib)
{
    FunctionSpec spec;
    spec.name = name;
    spec.language = lang;
    spec.reference = role == Role::Ref;
    spec.testSet = role == Role::Test;
    spec.body = std::move(body);
    spec.memoryFootprint = static_cast<Bytes>(mem_mib) * 1024 * 1024;
    spec.validate();
    return spec;
}

std::vector<FunctionSpec>
buildSuite()
{
    using L = Language;
    using R = Role;
    std::vector<FunctionSpec> suite;

    // Body parameters are chosen so each function's solo shared-time
    // share (stall cycles / total cycles) matches its paper
    // characterization: graph workloads 12-18%, streaming 7-10%,
    // light services 3-6%, float-py essentially zero.

    // ---- Python ------------------------------------------------------
    // AES encryption: keyed rounds over small state; mild memory use.
    suite.push_back(fn("aes-py", L::Python, R::Test,
                       160, 0.72, 1.6, 2.0, 0.18, 4.0, 256));
    // Recursive Fibonacci: call-stack bound, cache friendly.
    suite.push_back(fn("fib-py", L::Python, R::Ref,
                       120, 0.62, 0.66, 1.0, 0.08, 3.0, 128));
    // SeBS dynamic HTML rendering: template expansion, allocation heavy.
    suite.push_back(fn("dyn-py", L::Python, R::Test,
                       140, 0.78, 2.8, 3.5, 0.22, 4.0, 256));
    // SeBS thumbnailer: decode -> resize -> encode pipeline phases.
    suite.push_back(fnMulti(
        "thum-py", L::Python, R::Ref,
        {bodyPhase("decode", 70, 0.90, 3.2, 4.5, 0.50, 6.0),
         bodyPhase("resize", 100, 0.75, 1.8, 3.0, 0.45, 5.0),
         bodyPhase("encode", 50, 0.78, 1.6, 2.0, 0.40, 4.5)},
        512));
    // SeBS compression: dictionary passes over the input buffer.
    suite.push_back(fn("compre-py", L::Python, R::Test,
                       260, 0.75, 1.6, 3.0, 0.50, 5.0, 512));
    // SeBS image recognition: streaming model load, then cache-warm
    // inference, then light post-processing.
    suite.push_back(fnMulti(
        "recogn-py", L::Python, R::Test,
        {bodyPhase("load-model", 80, 0.85, 4.0, 6.0, 0.60, 6.0),
         bodyPhase("inference", 280, 0.66, 1.1, 6.0, 0.20, 3.5),
         bodyPhase("postprocess", 40, 0.60, 0.8, 1.0, 0.15, 3.0)},
        1024));
    // SeBS graph pagerank: pointer chasing over a large graph — the
    // paper's most congestion-sensitive function.
    suite.push_back(fn("pager-py", L::Python, R::Test,
                       300, 0.66, 2.8, 9.0, 0.30, 3.2, 512));
    // SeBS graph MST.
    suite.push_back(fn("mst-py", L::Python, R::Test,
                       260, 0.68, 2.8, 8.0, 0.25, 3.4, 512));
    // SeBS graph BFS.
    suite.push_back(fn("bfs-py", L::Python, R::Ref,
                       240, 0.66, 2.6, 8.5, 0.28, 3.2, 512));
    // SeBS DNA visualization: sequence windows + rendering buffers.
    suite.push_back(fn("visual-py", L::Python, R::Ref,
                       320, 0.74, 1.9, 5.0, 0.35, 4.0, 512));
    // AWS Lambda authorizer: token parse + HMAC check.
    suite.push_back(fn("auth-py", L::Python, R::Ref,
                       90, 0.70, 1.3, 1.8, 0.20, 4.0, 128));
    // FunctionBench chameleon templating.
    suite.push_back(fn("chame-py", L::Python, R::Test,
                       180, 0.76, 1.7, 3.0, 0.25, 4.0, 256));
    // FunctionBench float operations: pure compute, negligible memory
    // traffic (the paper's 99.96% T_private example).
    suite.push_back(fn("float-py", L::Python, R::Test,
                       1200, 0.55, 0.012, 0.25, 0.05, 2.0, 128));
    // FunctionBench gzip: read -> compress -> write phases.
    suite.push_back(fnMulti(
        "gzip-py", L::Python, R::Ref,
        {bodyPhase("read", 40, 0.80, 2.5, 3.5, 0.70, 8.0),
         bodyPhase("compress", 170, 0.70, 1.3, 3.0, 0.50, 4.5),
         bodyPhase("write", 30, 0.75, 1.2, 1.5, 0.60, 6.0)},
        256));
    // FunctionBench random disk I/O: page-cache misses everywhere.
    suite.push_back(fn("randDisk-py", L::Python, R::Ref,
                       200, 0.85, 1.6, 7.0, 0.60, 3.0, 512));
    // FunctionBench sequential disk I/O: buffered streaming.
    suite.push_back(fn("seqDisk-py", L::Python, R::Test,
                       220, 0.80, 2.0, 4.5, 0.65, 6.0, 512));

    // ---- Node.js -----------------------------------------------------
    suite.push_back(fn("aes-nj", L::NodeJs, R::Ref,
                       200, 0.68, 1.6, 3.0, 0.25, 4.0, 256));
    suite.push_back(fn("auth-nj", L::NodeJs, R::Test,
                       110, 0.72, 2.0, 3.0, 0.22, 4.0, 128));
    // Fibonacci in Node: JIT deopt churn + GC makes it memory heavy
    // (the paper singles fib-nj out as shared-resource reliant).
    suite.push_back(fn("fib-nj", L::NodeJs, R::Ref,
                       150, 0.60, 2.7, 8.0, 0.30, 3.0, 256));
    // Online Boutique currency service.
    suite.push_back(fn("cur-nj", L::NodeJs, R::Ref,
                       130, 0.74, 2.1, 4.0, 0.28, 4.0, 256));
    // Online Boutique payment service.
    suite.push_back(fn("pay-nj", L::NodeJs, R::Test,
                       140, 0.73, 1.9, 3.5, 0.25, 4.0, 256));

    // ---- Go ----------------------------------------------------------
    suite.push_back(fn("aes-go", L::Go, R::Ref,
                       180, 0.50, 0.8, 1.8, 0.20, 4.5, 128));
    suite.push_back(fn("auth-go", L::Go, R::Test,
                       100, 0.52, 1.0, 2.0, 0.22, 4.5, 128));
    suite.push_back(fn("fib-go", L::Go, R::Ref,
                       140, 0.45, 0.3, 0.7, 0.10, 3.0, 128));
    // Hotel Reservation geo service: spatial index walks.
    suite.push_back(fn("geo-go", L::Go, R::Test,
                       160, 0.55, 1.9, 5.0, 0.30, 4.0, 256));
    // Hotel Reservation profile service.
    suite.push_back(fn("profile-go", L::Go, R::Ref,
                       170, 0.56, 1.7, 4.5, 0.28, 4.0, 256));
    // Hotel Reservation rate service.
    suite.push_back(fn("rate-go", L::Go, R::Test,
                       150, 0.54, 1.4, 3.5, 0.26, 4.0, 256));

    return suite;
}

} // namespace

const std::vector<FunctionSpec> &
table1Suite()
{
    static const std::vector<FunctionSpec> suite = buildSuite();
    return suite;
}

std::vector<const FunctionSpec *>
referenceSet()
{
    std::vector<const FunctionSpec *> out;
    for (const FunctionSpec &spec : table1Suite()) {
        if (spec.reference)
            out.push_back(&spec);
    }
    return out;
}

std::vector<const FunctionSpec *>
testSet()
{
    std::vector<const FunctionSpec *> out;
    for (const FunctionSpec &spec : table1Suite()) {
        if (spec.testSet)
            out.push_back(&spec);
    }
    return out;
}

std::vector<const FunctionSpec *>
memoryIntensiveSet()
{
    // Section 8: aes-py, compre-py, thum-py, bfs-py, auth-py, fib-go,
    // geo-go, profile-go.
    static const char *names[] = {"aes-py", "compre-py", "thum-py",
                                  "bfs-py", "auth-py", "fib-go",
                                  "geo-go", "profile-go"};
    std::vector<const FunctionSpec *> out;
    for (const char *name : names)
        out.push_back(&functionByName(name));
    return out;
}

const FunctionSpec *
findFunction(std::string_view name)
{
    static const auto index = [] {
        // LITMUS-LINT-ALLOW(unordered-decl): name->spec lookup index only; suite order everywhere comes from table1Suite()'s vector
        std::unordered_map<std::string_view, const FunctionSpec *> map;
        for (const FunctionSpec &spec : table1Suite())
            map.emplace(spec.name, &spec);
        return map;
    }();
    const auto it = index.find(name);
    return it == index.end() ? nullptr : it->second;
}

const FunctionSpec &
functionByName(const std::string &name)
{
    const FunctionSpec *spec = findFunction(name);
    if (!spec)
        fatal("functionByName: unknown function '", name, "'");
    return *spec;
}

std::vector<const FunctionSpec *>
allFunctions()
{
    std::vector<const FunctionSpec *> out;
    for (const FunctionSpec &spec : table1Suite())
        out.push_back(&spec);
    return out;
}

} // namespace litmus::workload
