/**
 * @file
 * The invoker: keeps a constant population of co-running functions.
 *
 * Sections 4 and 7 maintain N co-running functions by launching a new
 * randomly selected function whenever one finishes. The invoker
 * reproduces that churn with two placement modes:
 *
 *  - OnePerCore (Section 7.1): each function is pinned to its own CPU;
 *    a replacement inherits the freed CPU.
 *  - Pooled (Section 7.2): functions share a CPU pool and may run on
 *    any CPU in it (temporal sharing via the OS scheduler).
 *
 * The invoker subscribes itself to its engine's completions when it is
 * built, so the churn needs no routing by the caller: a measurement
 * adds its subject through Engine::runToCompletion() and every
 * co-runner that finishes meanwhile is replaced. Several invokers may
 * share one engine; each relaunches only the tasks it launched.
 */

#ifndef LITMUS_WORKLOAD_INVOKER_H
#define LITMUS_WORKLOAD_INVOKER_H

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"
#include "workload/function_model.h"

namespace litmus::workload
{

/** Invoker configuration. */
struct InvokerConfig
{
    /** Placement of co-runner functions. */
    enum class Placement
    {
        OnePerCore,
        Pooled,
    };

    Placement placement = Placement::OnePerCore;

    /** Number of co-running functions to maintain. */
    unsigned targetCount = 26;

    /**
     * CPUs available to co-runners. In OnePerCore mode there must be
     * at least targetCount of them; in Pooled mode the whole list is
     * every task's affinity.
     */
    std::vector<unsigned> cpuPool;

    /** Sampling pool (defaults to the whole Table 1 suite). */
    std::vector<const FunctionSpec *> functionPool;

    /**
     * Enforce the machine's main-memory capacity: a slot whose sampled
     * functions do not fit is deferred until completions free memory
     * (the paper's experiments were sized by exactly this limit —
     * Section 7.2 and the Ice Lake setup). Deferred slots wait in
     * FIFO order and are retried at every completion.
     */
    bool enforceMemoryCapacity = true;

    /** Seed for function selection and jitter. */
    std::uint64_t seed = 1;
};

/**
 * Maintains the co-runner population inside an engine.
 *
 * Lifetime: the constructor registers a completion listener that holds
 * this invoker's address, and an engine cannot drop a listener. So the
 * engine must not step after the invoker is destroyed (declaring the
 * invoker after its engine in one scope is enough), and an invoker is
 * neither copied nor moved.
 */
class Invoker
{
  public:
    /** Subscribes to @p engine's completions; nothing launches until
     *  start(). */
    Invoker(sim::Engine &engine, InvokerConfig cfg);

    Invoker(const Invoker &) = delete;
    Invoker &operator=(const Invoker &) = delete;

    /** Launch the initial population. */
    void start();

    /** Number of co-runners currently live. */
    unsigned liveCount() const
    {
        return static_cast<unsigned>(owned_.size());
    }

    /** Total functions launched so far (initial + churn). */
    std::uint64_t launchedCount() const { return launched_; }

    /** Memory currently committed to live co-runners (bytes). */
    Bytes committedMemory() const { return committedMemory_; }

    /**
     * Times so far a slot started to wait because memory was full (at
     * start() or when its co-runner finished). Failed retries of a
     * waiting slot do not count again.
     */
    std::uint64_t deferredCount() const { return deferred_; }

    const InvokerConfig &config() const { return cfg_; }

  private:
    /**
     * The completion listener: when @p task is one of this invoker's
     * co-runners, launch a freshly sampled replacement (same CPU in
     * OnePerCore mode), then retry the deferred slots; ignore any
     * other task.
     */
    void handleCompletion(const sim::Task &task);

    /**
     * Launch one sampled function on the given CPUs. False, with no
     * launch, when none of the samples fits the free memory.
     */
    bool launch(const std::vector<unsigned> &affinity);

    /** launch(), or append the slot to the deferred FIFO. */
    void launchOrDefer(std::vector<unsigned> affinity);

    sim::Engine &engine_;
    InvokerConfig cfg_;
    Rng rng_;
    /** Live co-runners: task id -> affinity and committed memory. */
    struct Owned
    {
        std::vector<unsigned> affinity;
        Bytes memory;
    };
    // LITMUS-LINT-ALLOW(unordered-decl): task-id keyed ownership lookup only; never iterated (relaunch decisions key off completions, in completion order)
    std::unordered_map<std::uint64_t, Owned> owned_;
    /** Affinities of the slots waiting for memory, oldest first. */
    std::vector<std::vector<unsigned>> waiting_;
    std::uint64_t launched_ = 0;
    std::uint64_t deferred_ = 0;
    Bytes committedMemory_ = 0;
};

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_INVOKER_H
