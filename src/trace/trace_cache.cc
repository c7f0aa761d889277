#include "trace_cache.hh"

#include "util/audit.hh"
#include "util/env.hh"

namespace sbsim {

TraceCache &
TraceCache::instance()
{
    // Process-wide registry guarded by mutex_; it memoises values that
    // are pure functions of their key, so sharing it across sweeps
    // cannot make any result depend on run history.
    static TraceCache cache; // analyze:allow(static-state) mutex-guarded memo of key-deterministic traces; affects speed only, results are pinned cached==naive by differential tests
    return cache;
}

bool
TraceCache::enabledByEnv()
{
    return envBool("SBSIM_TRACE_CACHE").value_or(true);
}

template <typename T>
std::shared_ptr<const T>
TraceCache::liveLocked(const std::string &key) const
{
    const auto &entries = std::get<TraceCacheSlot<T>>(slots_).entries;
    auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second.lock();
}

template <typename T>
std::shared_ptr<const T>
TraceCache::adoptLocked(const std::string &key)
{
    std::shared_ptr<const T> live = liveLocked<T>(key);
    if (live)
        ++slot<T>().hits;
    return live;
}

template <typename T>
std::shared_ptr<const T>
TraceCache::getOrBuild(
    const std::string &key,
    const std::function<std::shared_ptr<const T>()> &build)
{
    {
        MutexLock lock(mutex_);
        if (auto hit = adoptLocked<T>(key))
            return hit;
    }
    // Produce outside the lock: production is the expensive part and
    // holding the mutex across it would serialise the sweep pool.
    std::shared_ptr<const T> produced = build();

    MutexLock lock(mutex_);
    // Lost a race: adopt the first writer's copy (identical content —
    // production is deterministic per key).
    if (auto winner = adoptLocked<T>(key))
        return winner;
    // Inserts are the only operation that grows the maps, so they are
    // the natural amortisation point for the expired-entry sweep.
    purgeExpiredLocked();
    TraceCacheSlot<T> &s = slot<T>();
    s.entries[key] = produced;
    ++s.built;
    return produced;
}

std::size_t
TraceCache::purgeExpiredLocked()
{
    std::size_t purged = 0;
    std::apply(
        [&purged](auto &...slots) {
            auto sweep = [&purged](auto &entries) {
                for (auto it = entries.begin(); it != entries.end();) {
                    if (it->second.expired()) {
                        it = entries.erase(it);
                        ++purged;
                    } else {
                        ++it;
                    }
                }
                // The bound the purge exists to maintain: a sweep
                // leaves only live entries behind, so map size can
                // never exceed the live working set plus whatever
                // expired since the last sweep — and a sweep runs on
                // every insert and stats() snapshot.
                SBSIM_AUDIT_BLOCK(
                    for (const auto &entry : entries)
                        SBSIM_AUDIT(!entry.second.expired(),
                                    "expired cache entry survived the "
                                    "purge: ",
                                    entry.first););
            };
            (sweep(slots.entries), ...);
        },
        slots_);
    expiredPurged_ += purged;
    return purged;
}

std::size_t
TraceCache::purgeExpired()
{
    MutexLock lock(mutex_);
    return purgeExpiredLocked();
}

std::shared_ptr<const MaterializedTrace>
TraceCache::getOrMaterialize(
    const std::string &key,
    const std::function<std::unique_ptr<TraceSource>()> &make)
{
    return getOrMaterializeTrace(
        key, [&make] { return MaterializedTrace::fromSource(*make()); });
}

std::shared_ptr<const MaterializedTrace>
TraceCache::getOrMaterializeTrace(
    const std::string &key,
    const std::function<std::shared_ptr<const MaterializedTrace>()>
        &produce)
{
    return getOrBuild<MaterializedTrace>(key, produce);
}

std::shared_ptr<const MaterializedTrace>
TraceCache::adoptRefTrace(const std::string &key)
{
    MutexLock lock(mutex_);
    return adoptLocked<MaterializedTrace>(key);
}

std::shared_ptr<const MaterializedTrace>
TraceCache::lookupRefTrace(const std::string &key) const
{
    MutexLock lock(mutex_);
    return liveLocked<MaterializedTrace>(key);
}

std::shared_ptr<const MissTrace>
TraceCache::lookupMissTrace(const std::string &key) const
{
    MutexLock lock(mutex_);
    return liveLocked<MissTrace>(key);
}

std::shared_ptr<const MissTrace>
TraceCache::getOrRecord(const std::string &key,
                        const std::function<MissTrace()> &record)
{
    return getOrBuild<MissTrace>(key, [&record] {
        return std::make_shared<const MissTrace>(record());
    });
}

std::shared_ptr<const SamplingPlan>
TraceCache::getOrBuildPlan(const std::string &key,
                           const std::function<SamplingPlan()> &build)
{
    return getOrBuild<SamplingPlan>(key, [&build] {
        return std::make_shared<const SamplingPlan>(build());
    });
}

void
TraceCache::noteReplay()
{
    MutexLock lock(mutex_);
    ++replays_;
}

TraceCacheStats
TraceCache::stats()
{
    MutexLock lock(mutex_);
    purgeExpiredLocked();
    TraceCacheStats s;
    std::apply(
        [&s](const auto &...slots) {
            auto resident = [](const auto &entries) {
                std::uint64_t bytes = 0;
                for (const auto &entry : entries) {
                    if (auto live = entry.second.lock())
                        bytes += live->bytes();
                }
                return bytes;
            };
            s.residentBytes = (resident(slots.entries) + ...);
        },
        slots_);
    const auto &refs = slot<MaterializedTrace>();
    const auto &misses = slot<MissTrace>();
    const auto &plans = slot<SamplingPlan>();
    s.refTraceHits = refs.hits;
    s.refTracesMaterialized = refs.built;
    s.refTraceEntries = refs.entries.size();
    s.missTraceHits = misses.hits;
    s.missTracesRecorded = misses.built;
    s.missTraceEntries = misses.entries.size();
    s.phasePlanHits = plans.hits;
    s.phasePlansBuilt = plans.built;
    s.phasePlanEntries = plans.entries.size();
    s.replays = replays_;
    s.expiredPurged = expiredPurged_;
    return s;
}

void
TraceCache::clear()
{
    MutexLock lock(mutex_);
    slots_ = {};
    replays_ = 0;
    expiredPurged_ = 0;
}

void
printTraceCacheReport(const TraceCacheStats &stats, std::FILE *out)
{
    std::fprintf(
        out,
        "sweep: trace cache: ref %llu hit / %llu built, miss "
        "%llu hit / %llu recorded, plan %llu hit / %llu built, "
        "%llu replays, %llu bytes resident, %llu expired purged "
        "(%llu+%llu+%llu keys live)\n",
        static_cast<unsigned long long>(stats.refTraceHits),
        static_cast<unsigned long long>(stats.refTracesMaterialized),
        static_cast<unsigned long long>(stats.missTraceHits),
        static_cast<unsigned long long>(stats.missTracesRecorded),
        static_cast<unsigned long long>(stats.phasePlanHits),
        static_cast<unsigned long long>(stats.phasePlansBuilt),
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.residentBytes),
        static_cast<unsigned long long>(stats.expiredPurged),
        static_cast<unsigned long long>(stats.refTraceEntries),
        static_cast<unsigned long long>(stats.missTraceEntries),
        static_cast<unsigned long long>(stats.phasePlanEntries));
}

void
writeTraceCacheJson(const TraceCacheStats &stats, std::ostream &os)
{
    os << "{\"ref_trace_hits\":" << stats.refTraceHits
       << ",\"ref_traces_materialized\":" << stats.refTracesMaterialized
       << ",\"miss_trace_hits\":" << stats.missTraceHits
       << ",\"miss_traces_recorded\":" << stats.missTracesRecorded
       << ",\"phase_plan_hits\":" << stats.phasePlanHits
       << ",\"phase_plans_built\":" << stats.phasePlansBuilt
       << ",\"replays\":" << stats.replays
       << ",\"resident_bytes\":" << stats.residentBytes
       << ",\"expired_purged\":" << stats.expiredPurged
       << ",\"ref_trace_entries\":" << stats.refTraceEntries
       << ",\"miss_trace_entries\":" << stats.missTraceEntries
       << ",\"phase_plan_entries\":" << stats.phasePlanEntries << '}';
}

} // namespace sbsim
