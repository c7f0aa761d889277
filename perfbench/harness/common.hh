/**
 * @file
 * Shared helpers of the perfbench harness: host-time clocks, order
 * statistics, seeded permutation, resident-memory probes, the
 * simulated-statistics digest, the host fingerprint and the result
 * line the benchmark contract asks for.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t. */
double secondsSince(Clock::time_point t);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 100] (0 when empty). */
double percentile(std::vector<double> v, double q);

/** One step of splitmix64; deterministic on every platform. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Fisher-Yates permutation of [0, n) driven by splitmix64(@p seed),
 *  so the same seed gives the same order with any standard library. */
std::vector<std::size_t> seededPermutation(std::size_t n,
                                           std::uint64_t seed);

/** VmHWM (peak resident set) of @p pid, or of this process when
 *  @p pid is 0, in MiB; 0 when /proc cannot be read. */
double peakRssMb(pid_t pid = 0);

/**
 * Samples VmRSS of a process every few milliseconds on its own
 * thread. VmHWM is one maximum per process lifetime, and in a
 * parallel sweep it depends on which working sets happen to overlap;
 * per-pass (or per-window) maxima of the sampled RSS give a median
 * that repeats run to run.
 */
class RssSampler
{
  public:
    struct Sample
    {
        double at = 0; ///< Seconds since the sampler's origin.
        double mb = 0;
    };

    /** Start sampling @p pid (0 = this process); times are seconds
     *  since @p origin. */
    RssSampler(pid_t pid, Clock::time_point origin);
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling and return every sample taken. */
    std::vector<Sample> stop();

    /** Largest sample in [@p from, @p to) (0 when none). */
    static double maxIn(const std::vector<Sample> &samples, double from,
                        double to);

  private:
    pid_t pid_;
    Clock::time_point origin_;
    std::vector<Sample> samples_; ///< Written by thread_ only.
    std::atomic<bool> done_{false};
    std::thread thread_;
};

/** 64-bit FNV-1a over a sequence of strings (each terminated, so
 *  ("ab","c") and ("a","bc") differ). */
class Digest
{
  public:
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Host fingerprint as one JSON object: CPU model, nproc, compiler,
 *  build type and @p revision (the source revision run.py computed).
 *  Results compare only when their fingerprints match (compare.py). */
std::string hostFingerprintJson(const std::string &revision);

/** Worker/connection budget: std::thread::hardware_concurrency(). */
unsigned hostThreads();

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** The contract's last stdout line:
 *  {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/** Full-precision JSON number (never NaN/inf: those print as 0). */
std::string jsonNum(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
