#include "trace/phase_profile.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "mem/block.hh"
#include "util/bitutil.hh"
#include "util/log_histogram.hh"
#include "util/logging.hh"

namespace sbsim {
namespace {

/** Coarse (octave) reuse-time bins in a signature. Deltas are
 *  bounded by the trace length, so 40 octaves cover any input. */
constexpr std::size_t kReuseBins = 40;
/** Signature layout: [0, kReuseBins) reuse octaves, then cold,
 *  instruction-fetch and store fractions. */
constexpr std::size_t kSigDims = kReuseBins + 3;

/** Per-interval raw profile, turned into a signature at the end. */
struct IntervalProfile
{
    std::uint64_t begin = 0;
    std::uint64_t length = 0;
    std::uint64_t cold = 0;
    std::uint64_t ifetch = 0;
    std::uint64_t stores = 0;
    Log2Histogram reuse;
};

/** Fold the histogram into octaves and normalize by interval
 *  length, so signatures of different-length intervals compare. */
std::vector<double>
makeSignature(const IntervalProfile &p)
{
    std::vector<double> sig(kSigDims, 0.0);
    p.reuse.forEachBucket(
        [&sig](std::uint64_t lower, std::uint64_t, std::uint64_t count) {
            std::size_t bin = lower == 0
                                  ? 0
                                  : static_cast<std::size_t>(
                                        floorLog2(lower) + 1);
            if (bin >= kReuseBins)
                bin = kReuseBins - 1;
            sig[bin] += static_cast<double>(count);
        });
    sig[kReuseBins] = static_cast<double>(p.cold);
    sig[kReuseBins + 1] = static_cast<double>(p.ifetch);
    sig[kReuseBins + 2] = static_cast<double>(p.stores);
    if (p.length > 0) {
        double inv = 1.0 / static_cast<double>(p.length);
        for (double &v : sig)
            v *= inv;
    }
    return sig;
}

double
l1Distance(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d += std::abs(a[i] - b[i]);  // analyze:allow(float-accum) geometry, not a stats counter
    return d;
}

} // namespace

std::string
PhaseProfileConfig::key() const
{
    std::ostringstream os;
    os << "iv" << intervalRefs << ":wu" << warmupRefs << ":k"
       << maxClusters << ":b" << blockBytes << ":t" << leaderThreshold;
    return os.str();
}

SamplingPlan
buildSamplingPlan(const MaterializedTrace &trace,
                  const PhaseProfileConfig &config)
{
    SBSIM_ASSERT(config.intervalRefs > 0,
                 "sampling plan needs intervalRefs > 0");
    SBSIM_ASSERT(config.maxClusters > 0,
                 "sampling plan needs maxClusters > 0");

    SamplingPlan plan;
    plan.config = config;
    plan.totalRefs = trace.size();

    const std::uint64_t n = trace.size();
    plan.intervalsTotal =
        (n + config.intervalRefs - 1) / config.intervalRefs;

    // Degenerate traces: one full-length interval, weight 1, no
    // warmup — the sampled run is then the exact run.
    auto makeExact = [&plan, n] {
        plan.exact = true;
        plan.selected.assign(1, SampledInterval{0, n, 0, 1.0});
    };
    if (plan.intervalsTotal <= 1) {
        makeExact();
        return plan;
    }

    // One-pass phase profiling: per-interval reuse-time sketch
    // (position delta to the previous touch of the same block,
    // bucketed by Log2Histogram), cold fraction, reference mix. One
    // hash probe per reference: a block's absence from the last-touch
    // map IS the cold signal, so no separate footprint set is kept.
    std::vector<IntervalProfile> profiles(plan.intervalsTotal);
    {
        const BlockMapper mapper(config.blockBytes);
        std::unordered_map<std::uint64_t, std::uint64_t> lastPos;
        lastPos.reserve(1 << 16);
        const MemAccess *run;
        std::uint64_t pos = 0;
        for (std::size_t len; (len = trace.span(pos, &run)) > 0;) {
            for (const MemAccess *a = run; a != run + len; ++a, ++pos) {
                IntervalProfile &p = profiles[pos / config.intervalRefs];
                if (p.length == 0)
                    p.begin = pos;
                ++p.length;
                if (a->isInstruction())
                    ++p.ifetch;
                if (a->isWrite())
                    ++p.stores;
                std::uint64_t block = mapper.blockNumber(a->addr);
                auto [it, inserted] = lastPos.try_emplace(block, pos);
                if (inserted) {
                    ++p.cold;
                } else {
                    p.reuse.add(pos - it->second);
                    it->second = pos;
                }
            }
        }
    }

    std::vector<std::vector<double>> sigs(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        sigs[i] = makeSignature(profiles[i]);

    // Leader clustering: first-fit leaders within a distance
    // threshold, doubled until at most maxClusters remain. Distances
    // are bounded (normalized signatures), so this terminates.
    std::vector<std::size_t> leaders;
    double threshold = config.leaderThreshold;
    for (int round = 0; round < 64; ++round) {
        leaders.clear();
        for (std::size_t i = 0; i < sigs.size(); ++i) {
            bool covered = false;
            for (std::size_t l : leaders) {
                if (l1Distance(sigs[i], sigs[l]) <= threshold) {
                    covered = true;
                    break;
                }
            }
            if (!covered)
                leaders.push_back(i);
        }
        if (leaders.size() <= config.maxClusters)
            break;
        threshold *= 2.0;
    }
    if (leaders.size() > config.maxClusters)
        leaders.resize(config.maxClusters);

    // Assign every interval to its nearest leader.
    std::vector<std::size_t> assignment(sigs.size(), 0);
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        double best = l1Distance(sigs[i], sigs[leaders[0]]);
        for (std::size_t c = 1; c < leaders.size(); ++c) {
            double d = l1Distance(sigs[i], sigs[leaders[c]]);
            if (d < best) {
                best = d;
                assignment[i] = c;
            }
        }
    }

    // Medoid refinement: represent each cluster by the member with
    // the least total distance to the rest of the cluster.
    std::vector<std::vector<std::size_t>> members(leaders.size());
    for (std::size_t i = 0; i < sigs.size(); ++i)
        members[assignment[i]].push_back(i);
    plan.selected.clear();
    for (const std::vector<std::size_t> &cluster : members) {
        if (cluster.empty())
            continue;
        std::size_t medoid = cluster[0];
        double best = -1.0;
        for (std::size_t cand : cluster) {
            double total = 0;
            for (std::size_t other : cluster)
                total += l1Distance(sigs[cand], sigs[other]);  // analyze:allow(float-accum) geometry, not a stats counter
            if (best < 0 || total < best) {
                best = total;
                medoid = cand;
            }
        }
        std::uint64_t clusterRefs = 0;
        for (std::size_t m : cluster)
            clusterRefs += profiles[m].length;
        SampledInterval sel;
        sel.begin = profiles[medoid].begin;
        sel.length = profiles[medoid].length;
        sel.warmupBegin =
            sel.begin - std::min<std::uint64_t>(sel.begin,
                                                config.warmupRefs);
        sel.weight = static_cast<double>(clusterRefs) /
                     static_cast<double>(sel.length);
        plan.selected.push_back(sel);
    }
    std::sort(plan.selected.begin(), plan.selected.end(),
              [](const SampledInterval &a, const SampledInterval &b) {
                  return a.begin < b.begin;
              });

    // No savings? Fall back to the exact single-interval plan.
    if (plan.simulatedRefs() + plan.warmupTotal() >= n)
        makeExact();
    return plan;
}

} // namespace sbsim
