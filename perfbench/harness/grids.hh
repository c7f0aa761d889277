/**
 * @file
 * The benchmark's workloads as the simulator sees them: generated
 * RunSpecs and SweepJobs, plus the uncached oracles that check them.
 * Nothing here depends on the seed except the order helpers; the
 * seed only reorders a grid or draws from the serve-mix universe.
 */

#ifndef PERFBENCH_GRIDS_HH
#define PERFBENCH_GRIDS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/run_spec.hh"
#include "sim/sweep_runner.hh"

namespace perfbench {

enum class Workload : std::uint8_t
{
    SWEEP_EXACT,
    SWEEP_SAMPLED,
    L2_STUDY,
    SERVE_MIX,
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** The registry's 15 benchmarks, in registry order. */
std::vector<std::string> benchmarkNames();

/** References per serve-mix input (kept short so a closed loop of
 *  four clients completes enough requests for a stable p99). */
inline constexpr std::uint64_t kServeRefs = 400000;

/** Distinct inputs (benchmark x scale x length) a workload reads, in
 *  canonical order; the traced run calls each layer on each. */
std::vector<sbsim::service::RunSpec> workloadInputs(Workload w);

/** Stream-engine configurations the workload replays per input. */
std::vector<sbsim::MemorySystemConfig> streamConfigs(Workload w);

/**
 * The workload's sweep grid in canonical order: Fig. 3/5/9 (15
 * benchmarks at LARGE x streams 1-10 x {always, unit filter, filter
 * + czone 18}) for the two sweeps, Table 4 (15 benchmarks x
 * {DEFAULT, LARGE} x table4CandidateConfigs(), streams off, L2 model
 * BOTH) for l2-study, and the jobs behind the serve-mix universe.
 */
std::vector<sbsim::SweepJob> gridJobs(Workload w);

/** References a result stands for: the estimate for sampled runs. */
std::uint64_t representedRefs(const sbsim::RunOutput &out);

/** The run's exported metrics document (runMetrics JSON). */
std::string outputDocument(const sbsim::RunOutput &out);

/** Uncached, serial result of @p job: runOnce for exact jobs (with the
 *  job's analytic L2 prediction when it asks for one), a fresh
 *  materialisation + plan + runSampled for sampled jobs. */
sbsim::RunOutput oracleOutput(const sbsim::SweepJob &job);

/** One serve-mix request shape. */
struct ServeRequest
{
    bool sweep = false; ///< "sweep" op, else "run".
    sbsim::service::RunSpec spec;
    std::vector<std::uint32_t> values; ///< Sweep grid (sweep only).

    /** The NDJSON request line (newline included). */
    std::string line(std::uint64_t id) const;
};

/** The fixed serve-mix universe: 15 benchmarks x {unit filter off,
 *  on} x {exact run, sampled run, 3-point sweep}. */
std::vector<ServeRequest> serveUniverse();

/** The order requests are sent in: @p count universe indices dealt
 *  deck by deck, each deck the whole universe once in a seeded order.
 *  The seed changes only the order, not the mix. */
std::vector<std::size_t>
requestSequence(const std::vector<ServeRequest> &universe,
                std::uint64_t seed, std::size_t count);

/** The result document the daemon must return for @p req, computed
 *  in process with the cache off (executeRun for runs, uncached
 *  serial runOnce per point for sweeps); sweep documents have their
 *  host-time fields stripped (stripSweepTimings). */
std::string expectedDocument(const ServeRequest &req);

/** Drop the host-time fields of a sweep document (per-job
 *  wall_seconds / refs_per_second and the aggregate), which differ
 *  run to run; what remains is every simulated statistic. */
std::string stripSweepTimings(const std::string &doc);

/** Accuracy of the two shortcut tiers, in points. */
struct Accuracy
{
    /** max |sampled - exact| L1 miss rate over the sweep grid's 15
     *  inputs (the L1 miss rate does not depend on the stream
     *  configuration, so one run per input covers the grid). */
    double sampledErrPts = 0;
    /** max |analytic - simulated| L2 miss ratio over the Table 4
     *  grid. */
    double analyticErrPts = 0;
};

/** Compute Accuracy on hostThreads() workers (deterministic). */
Accuracy accuracyProbe();

/** The runner every workload uses: hostThreads() workers, trace
 *  cache on, no heartbeat or cache report on stderr. */
sbsim::SweepRunner benchRunner();

} // namespace perfbench

#endif // PERFBENCH_GRIDS_HH
