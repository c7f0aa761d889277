/**
 * @file
 * What one harness invocation was asked to do, and what it found.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "grids.hh"

namespace perfbench {

struct Options
{
    Workload workload = Workload::SWEEP_EXACT;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** sbsim-serve executable built alongside the harness. */
    std::string serveBin;
    /** Directory for result and span files (inside the checkout). */
    std::string outDir = ".";
    /** Source revision recorded in the host fingerprint. */
    std::string revision = "unknown";
    /** Check every grid job against the oracle, not a sample. */
    bool fullOracle = false;
};

/** Everything a run reports besides its metrics. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of every simulated statistic, in canonical order. */
    std::string digest;
    /** Free-form JSON members (no braces) for the result file. */
    std::string extra;
};

/** The traced per-layer run (traced.cc). */
Report runTraced(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
