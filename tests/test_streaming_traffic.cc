/**
 * @file
 * Differential and contract suite for streaming arrival generation:
 * lazily pulled arrivals must reproduce the materialized-upfront
 * oracle bit-for-bit — every FleetReport field, every per-machine
 * ledger record — for every built-in model (poisson / diurnal /
 * burst / trace / azure), at every thread count, against the
 * exact-quantum oracle, and under a chaos campaign. Upfront delivery
 * is cluster::UpfrontTraffic wrapped around the scenario's model.
 *
 * Also covers the ArrivalStream contract itself (peek/next, seq
 * numbering, flow counters, ordering, finiteness and null-spec
 * enforcement, generate() as the drained stream), the azure-dataset
 * ingester (bucket sampling, suite mapping, caps), and the azure
 * scenario keys.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/traffic_source.h"
#include "common/line_reader.h"
#include "fleet_run.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"

namespace litmus
{
namespace
{

using cluster::ArrivalStream;
using cluster::Invocation;
using workload::FunctionSpec;

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream file(path);
    file << text;
    return path;
}

std::vector<const FunctionSpec *>
onePool()
{
    return {&workload::functionByName("float-py")};
}

/** Drain a stream into a vector (upfront-shaped, for comparisons). */
std::vector<Invocation>
drain(ArrivalStream &stream)
{
    std::vector<Invocation> out;
    Invocation inv;
    while (stream.next(inv))
        out.push_back(inv);
    return out;
}

// ---- streaming vs upfront differential -------------------------------

using test::expectIdentical;
using test::RunOutcome;

/** Serve @p spec; @p upfront wraps its model in UpfrontTraffic on a
 *  copy of the runner's ClusterConfig instead of streaming it. */
RunOutcome
runWith(scenario::ScenarioSpec spec, bool upfront, unsigned threads,
        bool exact = false)
{
    spec.threads = threads;
    scenario::ScenarioRunner runner(std::move(spec));
    cluster::ClusterConfig cfg = runner.clusterConfig();
    cfg.exactQuantum = exact;
    const cluster::UpfrontTraffic replay(*cfg.traffic);
    if (upfront)
        cfg.traffic = &replay;
    return test::serveFleet(cfg);
}

/** The full delivery-mode matrix for one spec: streaming must equal
 *  upfront at 1 and 16 threads, survive 4/16-thread streaming, and
 *  agree with the exact-quantum oracle while streaming. Returns the
 *  serial streaming outcome. */
RunOutcome
checkStreamingMatrix(const scenario::ScenarioSpec &spec)
{
    const RunOutcome serial = runWith(spec, false, 1);
    const RunOutcome upfront = runWith(spec, true, 1);
    // Same model name either way; upfront holds the whole trace.
    EXPECT_EQ(serial.report.arrivalFlow.model,
              upfront.report.arrivalFlow.model);
    EXPECT_EQ(upfront.report.arrivalFlow.bufferedMax,
              upfront.report.arrivals);
    expectIdentical(serial, upfront);
    expectIdentical(serial, runWith(spec, false, 4));
    expectIdentical(serial, runWith(spec, false, 16));
    expectIdentical(serial, runWith(spec, true, 16));
    expectIdentical(serial, runWith(spec, false, 1, true));
    return serial;
}

scenario::ScenarioSpec
baseSpec(const std::string &extra = "")
{
    return scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:3\n"
        "policy = warmth-aware\n"
        "rate = 1500\n"
        "invocations = 400\n"
        "keepalive = 0.05\n"
        "functions = test\n"
        "seed = 11\n" +
        extra);
}

/** A 450-invocation azure-shaped trace over @p minutes. One minute
 *  keeps the exact oracle, which steps every idle quantum, cheap. */
std::string
smallAzureCsv(const std::string &name, std::uint64_t seed,
              unsigned minutes = 1)
{
    scenario::AzureTraceGenSpec gen;
    gen.functions = 200;
    gen.minutes = minutes;
    gen.invocationsPerMinute = 450.0 / minutes;
    gen.seed = seed;
    const std::string path = ::testing::TempDir() + name;
    scenario::writeAzureShapedCsv(path, gen);
    return path;
}

TEST(StreamingDifferential, PoissonMatrix)
{
    checkStreamingMatrix(baseSpec());
}

TEST(StreamingDifferential, DiurnalMatrix)
{
    checkStreamingMatrix(baseSpec("traffic = diurnal\n"
                                  "diurnal.period = 0.4\n"
                                  "diurnal.amplitude = 0.95\n"));
}

TEST(StreamingDifferential, BurstMatrix)
{
    checkStreamingMatrix(baseSpec("traffic = burst\n"
                                  "burst.on = 0.05\n"
                                  "burst.off = 0.2\n"
                                  "burst.idle_fraction = 0.02\n"));
}

TEST(StreamingDifferential, TraceMatrix)
{
    const std::string tracePath = writeTempFile(
        "streaming_trace.csv", "0.0,float-py\n"
                               "0.001,aes-go\n"
                               "0.13,\n"
                               "0.50,float-py\n"
                               "0.5001,aes-go\n"
                               "1.75,\n");
    checkStreamingMatrix(baseSpec("traffic = trace\n"
                                  "trace.path = " + tracePath + "\n"));
}

TEST(StreamingDifferential, AzureMatrix)
{
    const std::string path = smallAzureCsv("streaming_azure.csv", 5);
    checkStreamingMatrix(baseSpec("traffic = azure\n"
                                  "azure.path = " + path + "\n"));
}

TEST(StreamingDifferential, ChaosOverlap)
{
    // Crashes + backoff retries while arrivals stream in: retry
    // re-dispatches interleave with lazily pulled arrivals, and the
    // stochastic fault schedule must come out identical because
    // UpfrontTraffic forwards the model's horizon hint.
    const auto spec = baseSpec("fault.crash.mtbf = 0.4\n"
                               "fault.crash.restart = 0.05\n"
                               "fault.retry = backoff\n"
                               "fault.retry.max = 3\n"
                               "fault.retry.backoff = 0.02\n"
                               "fault.billing = provider-absorbs\n"
                               "fault.seed = 5\n");
    checkStreamingMatrix(spec);
}

TEST(StreamingDifferential, AzureChaosOverlap)
{
    const std::string path =
        smallAzureCsv("streaming_azure_chaos.csv", 6);
    // mtbf 12 s on the one-minute trace: about a dozen crashes, a few
    // of them killing in-flight work that is then retried.
    const RunOutcome serial = checkStreamingMatrix(
        baseSpec("traffic = azure\n"
                 "azure.path = " + path + "\n"
                 "fault.crash.mtbf = 12\n"
                 "fault.crash.restart = 2\n"
                 "fault.retry = retry-once\n"));
    EXPECT_GE(serial.report.crashes, 1u);
    EXPECT_GE(serial.report.retries, 1u);
}

// ---- the ArrivalStream contract --------------------------------------

scenario::TrafficSpec
poissonSpec(std::uint64_t invocations = 50)
{
    scenario::TrafficSpec spec;
    spec.arrivalsPerSecond = 1000;
    spec.invocations = invocations;
    return spec;
}

TEST(StreamingContract, PeekDoesNotConsume)
{
    Rng rng(42);
    const auto model = scenario::makeTrafficModel(poissonSpec());
    const auto stream = model->open(rng, onePool());
    const Invocation *head = stream->peek();
    ASSERT_NE(head, nullptr);
    const Seconds first = head->arrival;
    EXPECT_EQ(stream->peek(), head); // stable across repeated peeks
    EXPECT_EQ(stream->pulled(), 0u);
    Invocation inv;
    ASSERT_TRUE(stream->next(inv));
    EXPECT_EQ(inv.arrival, first);
    EXPECT_EQ(inv.seq, 0u);
    EXPECT_EQ(stream->pulled(), 1u);
}

TEST(StreamingContract, CountersAndSequenceNumbers)
{
    Rng rng(42);
    const auto model = scenario::makeTrafficModel(poissonSpec());
    const auto stream = model->open(rng, onePool());
    const auto trace = drain(*stream);
    ASSERT_EQ(trace.size(), 50u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].seq, i);
        ASSERT_NE(trace[i].spec, nullptr);
        if (i > 0) {
            EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
        }
    }
    EXPECT_EQ(stream->pulled(), 50u);
    EXPECT_EQ(stream->generated(), 50u);
    // A native generative stream holds one lookahead slot, never the
    // trace — the bound the whole streaming path exists to provide.
    EXPECT_EQ(stream->bufferedMax(), 1u);
    EXPECT_EQ(stream->peek(), nullptr);
    Invocation inv;
    EXPECT_FALSE(stream->next(inv));
}

TEST(StreamingContract, ReplayStreamReportsUpfrontCost)
{
    std::vector<Invocation> trace(3);
    const auto pool = onePool();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].spec = pool[0];
        trace[i].arrival = 0.5 * static_cast<double>(i);
    }
    const auto stream = cluster::replayStream(trace, "canned");
    EXPECT_EQ(stream->model(), "canned");
    EXPECT_EQ(stream->bufferedMax(), 3u);
    EXPECT_EQ(drain(*stream).size(), 3u);
}

TEST(StreamingContract, GenerateIsTheStreamDrainedForEveryModel)
{
    const std::string tracePath = writeTempFile(
        "shim_oracle_trace.csv", "0.01,float-py\n0.02,\n0.05,\n");
    const std::string azurePath =
        smallAzureCsv("shim_oracle_azure.csv", 7);
    for (const std::string model :
         {"poisson", "diurnal", "burst", "trace", "azure"}) {
        scenario::TrafficSpec spec;
        spec.model = model;
        spec.arrivalsPerSecond = 2000;
        spec.invocations = 300;
        spec.diurnalPeriod = 0.05;
        spec.burstOn = 0.01;
        spec.burstOff = 0.03;
        spec.tracePath = tracePath;
        spec.azurePath = azurePath;
        const auto traffic = scenario::makeTrafficModel(spec);
        Rng upfrontRng(9);
        const auto upfront = traffic->generate(upfrontRng, onePool());
        Rng streamRng(9);
        const auto stream = traffic->open(streamRng, onePool());
        const auto streamed = drain(*stream);
        ASSERT_EQ(upfront.size(), streamed.size()) << model;
        for (std::size_t i = 0; i < upfront.size(); ++i) {
            EXPECT_EQ(upfront[i].arrival, streamed[i].arrival)
                << model << " arrival " << i;
            EXPECT_EQ(upfront[i].spec, streamed[i].spec)
                << model << " arrival " << i;
            EXPECT_EQ(upfront[i].seq, streamed[i].seq)
                << model << " arrival " << i;
        }
    }
}

/** A broken stream for contract-enforcement death tests: its second
 *  arrival is @p second (earlier than the first, or NaN). */
class BrokenStream final : public ArrivalStream
{
  public:
    BrokenStream(bool nullSpec,
                 const std::vector<const FunctionSpec *> &pool,
                 Seconds second = 0.5)
        : ArrivalStream("broken"), nullSpec_(nullSpec), pool_(pool),
          second_(second)
    {
    }

  protected:
    bool produce(Invocation &out) override
    {
        ++calls_;
        out.spec = nullSpec_ ? nullptr : pool_[0];
        out.arrival = calls_ == 1 ? 1.0 : second_;
        return calls_ <= 2;
    }

  private:
    bool nullSpec_;
    std::vector<const FunctionSpec *> pool_;
    Seconds second_;
    unsigned calls_ = 0;
};

TEST(StreamingContractDeath, BaseEnforcesOrderAndSpecs)
{
    const auto pool = onePool();
    EXPECT_EXIT(
        {
            BrokenStream stream(true, pool);
            (void)stream.peek();
        },
        ::testing::ExitedWithCode(1), "without a function spec");
    EXPECT_EXIT(
        {
            BrokenStream stream(false, pool);
            Invocation inv;
            stream.next(inv);
            stream.next(inv);
        },
        ::testing::ExitedWithCode(1), "out-of-order arrivals");
    // NaN compares false against everything: without an explicit
    // check it would slip past the ordering test and never dispatch.
    EXPECT_EXIT(
        {
            BrokenStream stream(false, pool,
                                std::numeric_limits<double>::quiet_NaN());
            Invocation inv;
            stream.next(inv);
            stream.next(inv);
        },
        ::testing::ExitedWithCode(1),
        "traffic model 'broken' emitted a non-finite arrival");
}

TEST(StreamingContract, ArrivalSeedIsItsOwnStreamFamily)
{
    // Jitter uses the raw seed, faults substream #1, arrivals
    // substream #2 — colliding families would entangle the draws and
    // break the streaming/upfront differential.
    EXPECT_NE(cluster::deriveArrivalSeed(11), 11u);
    EXPECT_NE(cluster::deriveArrivalSeed(11),
              cluster::deriveArrivalSeed(12));
}

// ---- the azure ingester ----------------------------------------------

std::vector<const FunctionSpec *>
twoPool()
{
    return {&workload::functionByName("float-py"),
            &workload::functionByName("aes-go")};
}

std::vector<Invocation>
azureArrivals(const std::string &path, std::uint64_t seed = 42,
              scenario::TrafficSpec spec = {})
{
    spec.model = "azure";
    spec.azurePath = path;
    spec.invocations = 0;
    Rng rng(seed);
    return scenario::makeTrafficModel(spec)->generate(rng, twoPool());
}

TEST(StreamingAzure, SuiteNamedRowsPinTheirFunction)
{
    const std::string path = writeTempFile(
        "azure_pin.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
        "aaaa,bbbb,float-py,http,2,0,1\n");
    const auto arrivals = azureArrivals(path);
    ASSERT_EQ(arrivals.size(), 3u);
    for (const Invocation &inv : arrivals)
        EXPECT_EQ(inv.spec->name, "float-py");
    // Column 1 is minute [0, 60); column 3 is minute [120, 180).
    EXPECT_LT(arrivals[1].arrival, 60.0);
    EXPECT_GE(arrivals[2].arrival, 120.0);
    EXPECT_LT(arrivals[2].arrival, 180.0);
}

TEST(StreamingAzure, OpaqueRowsSpreadOverThePoolStably)
{
    const std::string path = writeTempFile(
        "azure_hash.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1\n"
        "aaaa,bbbb,cccc,http,3\n");
    const auto a = azureArrivals(path);
    const auto b = azureArrivals(path);
    ASSERT_EQ(a.size(), 3u);
    // All three invocations of one row share the identity-hashed
    // function, and the mapping is stable across runs.
    EXPECT_EQ(a[0].spec, a[1].spec);
    EXPECT_EQ(a[0].spec, a[2].spec);
    EXPECT_EQ(a[0].spec, b[0].spec);
}

TEST(StreamingAzure, RateScaleCompressesTime)
{
    const std::string path = writeTempFile(
        "azure_scale.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,float-py,http,0,4\n");
    scenario::TrafficSpec scaled;
    scaled.azureRateScale = 2.0;
    const auto arrivals = azureArrivals(path, 42, scaled);
    ASSERT_EQ(arrivals.size(), 4u);
    // Minute [60, 120) replayed twice as fast lands in [30, 60).
    for (const Invocation &inv : arrivals) {
        EXPECT_GE(inv.arrival, 30.0);
        EXPECT_LT(inv.arrival, 60.0);
    }
}

TEST(StreamingAzure, RowCapStopsTheParse)
{
    const std::string path = writeTempFile(
        "azure_cap.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1\n"
        "aaaa,bbbb,float-py,http,2\n"
        "cccc,dddd,aes-go,timer,5\n");
    scenario::TrafficSpec capped;
    capped.azureMaxRows = 1;
    const auto arrivals = azureArrivals(path, 42, capped);
    ASSERT_EQ(arrivals.size(), 2u); // second row never parsed
    EXPECT_EQ(arrivals[0].spec->name, "float-py");
}

TEST(StreamingAzure, InvocationsAndDurationCapEmission)
{
    const std::string path = writeTempFile(
        "azure_emit_cap.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,float-py,http,3,3\n");
    scenario::TrafficSpec byCount;
    byCount.model = "azure";
    byCount.azurePath = path;
    byCount.invocations = 2;
    Rng rng(1);
    EXPECT_EQ(scenario::makeTrafficModel(byCount)
                  ->generate(rng, twoPool())
                  .size(),
              2u);
    scenario::TrafficSpec byTime;
    byTime.duration = 60.0; // first minute only
    const auto arrivals = azureArrivals(path, 42, byTime);
    EXPECT_EQ(arrivals.size(), 3u);
    EXPECT_LT(arrivals.back().arrival, 60.0);
}

TEST(StreamingAzure, GeneratorRoundTripServesEveryInvocation)
{
    scenario::AzureTraceGenSpec gen;
    gen.functions = 40;
    gen.minutes = 4;
    gen.invocationsPerMinute = 50.0;
    gen.seed = 9;
    const std::string path = ::testing::TempDir() + "azure_round.csv";
    const std::uint64_t total =
        scenario::writeAzureShapedCsv(path, gen);
    ASSERT_GT(total, 0u);
    const auto arrivals = azureArrivals(path);
    EXPECT_EQ(arrivals.size(), total);
    // Same generator knobs + seed produce the identical file.
    const std::string again = ::testing::TempDir() + "azure_round2.csv";
    EXPECT_EQ(scenario::writeAzureShapedCsv(again, gen), total);
}

TEST(StreamingAzure, BuffersOneMinuteAtATime)
{
    const std::string path = smallAzureCsv("azure_buffer.csv", 8, 3);
    scenario::TrafficSpec spec;
    spec.model = "azure";
    spec.azurePath = path;
    spec.invocations = 0;
    const auto model = scenario::makeTrafficModel(spec);
    Rng rng(42);
    const auto stream = model->open(rng, twoPool());
    const auto arrivals = drain(*stream);
    ASSERT_GT(arrivals.size(), 0u);
    // The stream's resident peak is one minute bucket, not the trace.
    EXPECT_LT(stream->bufferedMax(), arrivals.size());
    std::uint64_t worstMinute = 0;
    for (std::size_t i = 0; i < arrivals.size();) {
        const double minute = std::floor(arrivals[i].arrival / 60.0);
        std::uint64_t inMinute = 0;
        while (i < arrivals.size() &&
               std::floor(arrivals[i].arrival / 60.0) == minute) {
            ++inMinute;
            ++i;
        }
        worstMinute = std::max(worstMinute, inMinute);
    }
    EXPECT_EQ(stream->bufferedMax(), worstMinute);
}

TEST(StreamingAzureDeath, MalformedTraces)
{
    scenario::TrafficSpec spec;
    spec.model = "azure";
    spec.azurePath = "/nonexistent/azure.csv";
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "cannot read");

    spec.azurePath = writeTempFile(
        "azure_no_rows.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1\n");
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "no function rows");

    spec.azurePath = writeTempFile(
        "azure_all_zero.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,cccc,http,0,0\n");
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "no invocations");

    spec.azurePath = writeTempFile(
        "azure_ragged.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,cccc,http,1,2\n"
        "dddd,eeee,ffff,http,1\n");
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "count columns");

    spec.azurePath = writeTempFile(
        "azure_bad_count.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,cccc,http,1,-3\n");
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "bad invocation count");

    scenario::TrafficSpec missing;
    missing.model = "azure";
    EXPECT_EXIT(missing.validate(), ::testing::ExitedWithCode(1),
                "azure.path");
    missing.azurePath = "x.csv";
    missing.azureRateScale = 0;
    EXPECT_EXIT(missing.validate(), ::testing::ExitedWithCode(1),
                "azure.rate_scale");
}

// ---- the one-pass ingest against the split-then-parse reference ------

/** One function row as the reference parse reads it. */
struct ReferenceRow
{
    std::vector<std::string> identity;
    std::vector<std::uint64_t> counts;
};

/**
 * The reference: the ingest's earlier split-then-parse loop, kept as
 * the oracle. Each line is split into trimmed fields, each cell parsed
 * on its own. Covers well-formed files only (a bad file fails a test
 * expectation rather than the process).
 */
std::vector<ReferenceRow>
referenceParse(const std::string &path)
{
    LineReader in(path);
    std::vector<std::string_view> fields;
    std::vector<ReferenceRow> rows;
    bool headerAllowed = true;
    std::size_t columns = 0;
    while (in.next()) {
        splitFields(in.line(), ',', fields);
        if (fields.size() < 5) {
            ADD_FAILURE() << "short row: " << in.line();
            return rows;
        }
        if (headerAllowed &&
            (fields[0] == "HashOwner" ||
             !parseNumber<std::uint64_t>(fields[4]))) {
            headerAllowed = false;
            columns = fields.size() - 4;
            continue;
        }
        headerAllowed = false;
        if (columns == 0)
            columns = fields.size() - 4;
        EXPECT_EQ(fields.size() - 4, columns) << in.line();
        ReferenceRow row;
        row.identity.assign(fields.begin(), fields.begin() + 4);
        for (std::size_t m = 4; m < fields.size(); ++m) {
            const auto count = parseNumber<std::uint64_t>(fields[m]);
            EXPECT_TRUE(count) << "'" << fields[m] << "'";
            row.counts.push_back(count.value_or(0));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/** @p rows as a plain dataset-shaped CSV: header, no blanks, no
 *  comments, LF line ends, counts in shortest decimal. */
std::string
canonicalCsv(const std::vector<ReferenceRow> &rows)
{
    std::string text = "HashOwner,HashApp,HashFunction,Trigger";
    for (std::size_t m = 1; m <= rows.front().counts.size(); ++m) {
        text += ',';
        text += std::to_string(m);
    }
    text += '\n';
    for (const ReferenceRow &row : rows) {
        for (std::size_t k = 0; k < row.identity.size(); ++k) {
            if (k > 0)
                text += ',';
            text += row.identity[k];
        }
        for (std::uint64_t count : row.counts) {
            text += ',';
            text += std::to_string(count);
        }
        text += '\n';
    }
    return text;
}

/** The first @p invocations arrivals the ingest makes of @p path. */
std::vector<Invocation>
firstAzureArrivals(const std::string &path, std::uint64_t invocations)
{
    scenario::TrafficSpec spec;
    spec.model = "azure";
    spec.azurePath = path;
    spec.invocations = invocations;
    Rng rng(42);
    return scenario::makeTrafficModel(spec)->generate(rng, twoPool());
}

TEST(StreamingAzure, OnePassIngestMatchesTheSplitReference)
{
    // Blank-padded cells, tabs, CRLF line ends, comments, leading
    // zeros and a 19-digit count past 2^63; one file with the
    // dataset's header, one whose first line is already a function
    // row. The large count sits in the last minute, which the
    // invocation cap stops the stream short of; with the other counts
    // it stays below 2^64, so the file total is exact.
    constexpr std::uint64_t kLarge = 9999999999999999999ull;
    const std::string large = std::to_string(kLarge);
    const std::vector<std::pair<std::string, std::string>> files = {
        {"azure_messy_header.csv",
         "# a hand-written day\r\n"
         " HashOwner , HashApp,HashFunction ,Trigger,1,2,3,4\r\n"
         "\r\n"
         " aaaa ,bbbb,float-py,\thttp, 2 ,007,\t0 ,0\r\n"
         "cccc,dddd,eeee,timer,0,1,3\t,0   # trailing comment\r\n"
         "ffff, gggg ,aes-go,queue,0000,0, 12," + large + "\r\n"},
        {"azure_messy_bare.csv",
         "aaaa,bbbb,cccc,http,01, 0,2,0\n"
         "\t# comment only\n"
         "dddd , eeee,float-py , timer,0,5 ,\t0," + large + "\t\r\n"
         "ffff,gggg,hhhh,event,3,0,0,0\n"},
    };
    for (const auto &[name, text] : files) {
        SCOPED_TRACE(name);
        const std::string messy = writeTempFile(name, text);
        const std::vector<ReferenceRow> rows = referenceParse(messy);
        ASSERT_FALSE(::testing::Test::HasFailure());
        ASSERT_EQ(rows.size(), 3u);
        // Every count before the last minute, by minute.
        std::vector<std::uint64_t> perMinute(3, 0);
        for (const ReferenceRow &row : rows) {
            ASSERT_EQ(row.counts.size(), 4u);
            for (std::size_t m = 0; m < 3; ++m)
                perMinute[m] += row.counts[m];
        }
        EXPECT_TRUE(std::any_of(
            rows.begin(), rows.end(), [&](const ReferenceRow &row) {
                return row.counts.back() == kLarge;
            }));
        std::uint64_t before = 0;
        for (std::uint64_t n : perMinute)
            before += n;

        const std::string plain =
            writeTempFile(name + ".plain", canonicalCsv(rows));
        const auto got = firstAzureArrivals(messy, before);
        const auto want = firstAzureArrivals(plain, before);
        ASSERT_EQ(got.size(), before);
        ASSERT_EQ(want.size(), before);
        std::vector<std::uint64_t> seen(3, 0);
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].arrival, want[i].arrival) << "arrival " << i;
            EXPECT_EQ(got[i].spec, want[i].spec) << "arrival " << i;
            const auto minute =
                static_cast<std::size_t>(got[i].arrival / 60.0);
            ASSERT_LT(minute, 3u);
            ++seen[minute];
        }
        EXPECT_EQ(seen, perMinute);
    }
}

TEST(StreamingAzure, LargestCountParses)
{
    // 2^64 - 1, padded, as the file's only invocations: the model
    // builds (no wrap, so the total is not zero) and the horizon ends
    // with that cell's minute. No stream is opened, so the bucket is
    // never materialized.
    const std::string path = writeTempFile(
        "azure_largest.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
        "aaaa,bbbb,float-py,http,0,\t18446744073709551615 ,0\n");
    const std::vector<ReferenceRow> rows = referenceParse(path);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].counts[1], std::numeric_limits<std::uint64_t>::max());
    scenario::TrafficSpec spec;
    spec.model = "azure";
    spec.azurePath = path;
    EXPECT_DOUBLE_EQ(scenario::makeTrafficModel(spec)->horizonHint(),
                     120.0);
}

TEST(StreamingAzureDeath, TotalPastTheLargestCountFails)
{
    // Each cell fits 2^64 - 1 but the file's total does not: the row
    // fails at its line instead of wrapping the total to 0 (which
    // read as "contains no invocations").
    scenario::TrafficSpec spec;
    spec.model = "azure";
    spec.azurePath = writeTempFile(
        "azure_total_wrap.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,cccc,http,18446744073709551615,1\n");
    EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                ::testing::ExitedWithCode(1),
                "azure_total_wrap\\.csv:2: invocation count 1 in minute 2 "
                "takes the trace's total past 2\\^64 - 1");
}

TEST(StreamingAzure, RowCapLeavesAMalformedRowUnread)
{
    // The second row holds a bad cell, but the cap stops the read
    // before it is parsed.
    const std::string path = writeTempFile(
        "azure_cap_malformed.csv",
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "aaaa,bbbb,float-py,http,2,1\n"
        "cccc,dddd,aes-go,timer,+1,0x1\n");
    scenario::TrafficSpec capped;
    capped.azureMaxRows = 1;
    EXPECT_EQ(azureArrivals(path, 42, capped).size(), 3u);
}

TEST(StreamingAzureDeath, CountCellGrammar)
{
    // A count cell is decimal digits with optional blanks around
    // them: no sign, no hex, never empty, at most 2^64 - 1.
    const std::string header =
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n";
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"aaaa,bbbb,cccc,http,1,18446744073709551616",
         "'18446744073709551616' in minute 2"},
        {"aaaa,bbbb,cccc,http,+1,0", "'\\+1' in minute 1"},
        {"aaaa,bbbb,cccc,http,0x1,0", "'0x1' in minute 1"},
        {"aaaa,bbbb,cccc,http,1,", "'' in minute 2"},
        {"aaaa,bbbb,cccc,http,1,2 3", "'2 3' in minute 2"},
        {"aaaa,bbbb,cccc,http,-0,1", "'-0' in minute 1"},
    };
    scenario::TrafficSpec spec;
    spec.model = "azure";
    for (std::size_t i = 0; i < bad.size(); ++i) {
        SCOPED_TRACE(bad[i].first);
        spec.azurePath = writeTempFile(
            "azure_cell" + std::to_string(i) + ".csv",
            header + "eeee,ffff,float-py,http,1,1\n" + bad[i].first + "\n");
        EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                    ::testing::ExitedWithCode(1),
                    "azure_cell" + std::to_string(i) +
                        "\\.csv:3: bad invocation count " + bad[i].second);
    }
}

TEST(StreamingAzureDeath, RowShapeComesBeforeItsCells)
{
    scenario::TrafficSpec spec;
    spec.model = "azure";
    const auto expectFatal = [&](const std::string &name,
                                 const std::string &text,
                                 const std::string &message) {
        SCOPED_TRACE(name);
        spec.azurePath = writeTempFile(name, text);
        EXPECT_EXIT((void)scenario::makeTrafficModel(spec),
                    ::testing::ExitedWithCode(1), message);
    };
    const std::string header =
        "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n";
    // A ragged row with a bad cell names its shape, short or long.
    expectFatal("azure_short_bad.csv", header + "aaaa,bbbb,cccc,http,x,1\n",
                "azure_short_bad\\.csv:2: row has 2 count columns, "
                "expected 3");
    expectFatal("azure_long_bad.csv",
                header + "aaaa,bbbb,cccc,http,1,+2,3,4\n",
                "azure_long_bad\\.csv:2: row has 4 count columns, "
                "expected 3");
    // Too few columns for a single count.
    expectFatal("azure_identity_only.csv", header + "aaaa,bbbb,cccc\n",
                "azure_identity_only\\.csv:2: expected at least 5 "
                "columns .*got 3");
    expectFatal("azure_no_counts.csv", "aaaa,bbbb,cccc,http\n",
                "azure_no_counts\\.csv:1: expected at least 5 "
                "columns .*got 4");
    // The capped row's shape is still checked, though its cells are
    // not read.
    spec.azureMaxRows = 1;
    expectFatal("azure_capped_ragged.csv",
                header + "aaaa,bbbb,float-py,http,1,0,0\n"
                         "cccc,dddd,eeee,http,1,+1\n",
                "azure_capped_ragged\\.csv:3: row has 2 count columns");
}

// ---- the new scenario keys -------------------------------------------

TEST(StreamingScenarioKeys, AzureAndArrivalsKeysParse)
{
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::fromString("traffic = azure\n"
                                           "azure.path = day.csv\n"
                                           "azure.max_rows = 1000\n"
                                           "azure.rate_scale = 2.5\n");
    EXPECT_EQ(spec.traffic.model, "azure");
    EXPECT_EQ(spec.traffic.azurePath, "day.csv");
    EXPECT_EQ(spec.traffic.azureMaxRows, 1000u);
    EXPECT_DOUBLE_EQ(spec.traffic.azureRateScale, 2.5);
    // Like trace, an azure replay with no explicit cap plays the
    // whole file instead of truncating at the generative default.
    EXPECT_EQ(spec.traffic.invocations, 0u);

    EXPECT_EQ(scenario::ScenarioSpec::fromString("invocations = 70\n"
                                                 "traffic = azure\n")
                  .traffic.invocations,
              70u);
}

TEST(StreamingScenarioKeys, RelativeAzurePathResolvesAgainstFile)
{
    const std::string path = writeTempFile(
        "streaming_keys.scenario", "traffic = azure\n"
                                   "azure.path = day.csv\n");
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::fromFile(path);
    EXPECT_EQ(spec.traffic.azurePath, ::testing::TempDir() + "day.csv");
}

TEST(StreamingScenarioKeysDeath, BadArrivalsValueIsFatal)
{
    // Delivery is no longer a scenario knob: `arrivals` (and the old
    // `scheduler` key) hit the unknown-key fatal like any typo.
    EXPECT_EXIT(
        (void)scenario::ScenarioSpec::fromString("arrivals = upfront\n"),
        ::testing::ExitedWithCode(1), "unknown scenario key 'arrivals'");
    EXPECT_EXIT(
        (void)scenario::ScenarioSpec::fromString("scheduler = epoch\n"),
        ::testing::ExitedWithCode(1),
        "unknown scenario key 'scheduler'");
}

} // namespace
} // namespace litmus
