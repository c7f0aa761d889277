/**
 * @file
 * perfbench: the streamsim end-to-end benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --serve-bin PATH [--out-dir DIR] [--revision REV]
 *             [--full-oracle]
 *
 * Untraced runs (--trace 0) time each workload around the whole run
 * and report the end-to-end metrics; --trace 1 runs the per-layer
 * trace instead (traced.cc). Both check the simulator's outputs
 * against uncached oracles outside the timed region and end with the
 * one-line JSON result run.py relays. See ../README.md.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "harness.hh"
#include "serve.hh"
#include "service/json.hh"

using namespace perfbench;

namespace {

/** Set-up measurements per run; the median is reported. A set-up
 *  takes about 2 ms, and the first few after a process exits can take
 *  twice that, which moved a median of 15 by up to 2x. */
constexpr int kSetupProbes = 60;
/** serve-mix rates are medians over windows of this many seconds, so
 *  a burst of load from outside shifts only the windows it covers. */
constexpr double kWindowSeconds = 2.0;
/** Upper bound on serve-mix requests in one run. */
constexpr std::size_t kMaxServeRequests = 100000;
/** Grid jobs re-run through the uncached oracle per run. */
constexpr std::size_t kOracleSample = 8;

/** Abort the run. Thrown, not exited, so that unwinding reaps any
 *  daemon still running; main() turns it into exit status 2. */
[[noreturn]] void
die(const std::string &msg)
{
    throw std::runtime_error(msg);
}

/** What the set-up probe child builds before it reports ready: the
 *  workload's generated jobs and the runner that will take them. */
void
probeSetupChild(Workload w)
{
    std::vector<sbsim::SweepJob> jobs = gridJobs(w);
    const sbsim::SweepRunner runner = benchRunner();
    std::printf("ready %zu %u\n", jobs.size(), runner.jobs());
    std::fflush(stdout);
}

/** Host seconds from spawning this executable in probe mode until it
 *  reports ready; negative on failure. */
double
timeSetupChild(Workload w)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1;
    Clock::time_point t0 = Clock::now();
    pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::execl("/proc/self/exe", "perfbench", "--probe-setup",
                workloadName(w), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    ::close(fds[1]);
    char buf[64];
    ssize_t n = ::read(fds[0], buf, sizeof buf);
    double seconds = secondsSince(t0);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    bool ok = n > 5 && std::strncmp(buf, "ready", 5) == 0 &&
              WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return ok ? seconds : -1;
}

void
addAccuracy(Report &rep)
{
    Accuracy acc = accuracyProbe();
    rep.metrics.push_back({"sampled_err_pts", "pts", acc.sampledErrPts});
    rep.metrics.push_back(
        {"analytic_err_pts", "pts", acc.analyticErrPts});
}

/** sweep-exact, sweep-sampled and l2-study: whole-grid passes through
 *  SweepRunner until the time is up. */
Report
runGrid(const Options &opts)
{
    Report rep;
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
        double s = timeSetupChild(opts.workload);
        if (s < 0)
            die("set-up probe failed");
        setups.push_back(s);
    }

    const std::vector<sbsim::SweepJob> jobs = gridJobs(opts.workload);
    const std::vector<std::size_t> order =
        seededPermutation(jobs.size(), opts.seed);
    std::vector<sbsim::SweepJob> submitted;
    for (std::size_t i : order)
        submitted.push_back(jobs[i]);
    const sbsim::SweepRunner runner = benchRunner();

    std::vector<double> pass_refs_rate;
    std::vector<double> pass_job_rate;
    std::vector<double> job_ms;
    std::vector<std::string> first_docs(jobs.size());
    std::string first_digest;
    std::vector<double> pass_peak_mb;
    std::vector<std::pair<double, double>> pass_times;
    std::uint64_t passes = 0;
    Clock::time_point start = Clock::now();
    RssSampler rss(0, start);
    while (passes == 0 || secondsSince(start) < opts.seconds) {
        const double from = secondsSince(start);
        Clock::time_point t0 = Clock::now();
        std::vector<sbsim::SweepResult> results = runner.run(submitted);
        double wall = secondsSince(t0);
        pass_times.emplace_back(from, from + wall);
        // Everything below is bookkeeping outside the pass's clock.
        std::uint64_t refs = 0;
        std::vector<std::string> docs(jobs.size());
        for (std::size_t p = 0; p < results.size(); ++p) {
            refs += representedRefs(results[p].output);
            job_ms.push_back(results[p].wallSeconds * 1e3);
            docs[order[p]] = outputDocument(results[p].output);
        }
        Digest digest;
        for (std::size_t i = 0; i < docs.size(); ++i) {
            digest.add(jobs[i].label);
            digest.add(docs[i]);
        }
        rep.attempted += results.size();
        if (passes == 0) {
            first_digest = digest.hex();
            first_docs = std::move(docs);
        } else if (digest.hex() != first_digest) {
            // A pass disagreeing with the first is a wrong result;
            // count the whole pass.
            rep.failed += results.size();
        }
        pass_refs_rate.push_back(static_cast<double>(refs) / wall);
        pass_job_rate.push_back(static_cast<double>(results.size()) /
                                wall);
        ++passes;
    }
    const std::vector<RssSampler::Sample> rss_samples = rss.stop();
    for (const auto &[from, to] : pass_times)
        pass_peak_mb.push_back(RssSampler::maxIn(rss_samples, from, to));
    const double hwm_mb = peakRssMb();

    // Oracle: uncached serial runs of a seeded sample (or all jobs).
    std::vector<std::size_t> sample = seededPermutation(
        jobs.size(), opts.seed ^ 0x5eedf00dULL);
    if (!opts.fullOracle && sample.size() > kOracleSample)
        sample.resize(kOracleSample);
    std::atomic<std::uint64_t> mismatches{0};
    sbsim::parallelFor(sample.size(),
                       opts.fullOracle ? hostThreads() : 1,
                       [&](std::size_t k) {
                           std::size_t i = sample[k];
                           if (outputDocument(oracleOutput(jobs[i])) !=
                               first_docs[i])
                               ++mismatches;
                       });
    rep.attempted += sample.size();
    rep.failed += mismatches.load();
    if (mismatches.load())
        std::fprintf(stderr, "perfbench: %llu oracle mismatches\n",
                     static_cast<unsigned long long>(mismatches.load()));

    rep.digest = first_digest;
    rep.metrics.push_back({"setup_s", "s", median(setups)});
    rep.metrics.push_back({"refs_per_s", "1/s", median(pass_refs_rate)});
    rep.metrics.push_back({"req_p50_ms", "ms", percentile(job_ms, 50)});
    rep.metrics.push_back({"req_p99_ms", "ms", percentile(job_ms, 99)});
    rep.metrics.push_back({"req_per_s", "1/s", median(pass_job_rate)});
    rep.metrics.push_back({"peak_rss_mb", "MB", median(pass_peak_mb)});
    addAccuracy(rep);
    // The grid runs no requests of its own: a "request" is one job and
    // its latency is SweepRunner's own per-job timer, which leaves out
    // the pre-passes and the analytic evaluation. Named in the result
    // so it is never read as a harness measurement.
    rep.extra = "\"req_latency\":\"runner_job_timer\",\"passes\":" +
                std::to_string(passes) +
                ",\"vm_hwm_mb\":" + jsonNum(hwm_mb) +
                ",\"jobs_per_pass\":" + std::to_string(jobs.size()) +
                ",\"latency_samples\":" + std::to_string(job_ms.size()) +
                ",\"oracle_checked\":" + std::to_string(sample.size()) +
                ",\"pass_refs_per_s\":[";
    for (std::size_t i = 0; i < pass_refs_rate.size(); ++i)
        rep.extra += (i ? "," : "") + jsonNum(pass_refs_rate[i]);
    rep.extra += "]";
    return rep;
}

/** One completed serve-mix request. */
struct Sample
{
    std::size_t request = 0; ///< Universe index.
    double sentAt = 0;       ///< Seconds since the clients started.
    double latency = 0;      ///< Seconds.
    bool ok = false;
    std::uint64_t references = 0;
    std::uint64_t docHash = 0;
    std::string error;
};

/** Parse one run/sweep response into @p s. */
void
parseResponse(const std::string &line, const ServeRequest &req, Sample &s)
{
    sbsim::service::JsonParseResult parsed =
        sbsim::service::parseJson(line);
    const sbsim::service::JsonValue *ok =
        parsed.ok() ? parsed.value.find("ok") : nullptr;
    if (!ok || !ok->boolValue()) {
        const sbsim::service::JsonValue *err =
            parsed.ok() ? parsed.value.find("error") : nullptr;
        s.error = err ? err->stringValue() : "malformed response";
        return;
    }
    const sbsim::service::JsonValue *refs = parsed.value.find("references");
    const sbsim::service::JsonValue *result = parsed.value.find("result");
    if (!refs || !result) {
        s.error = "response without references/result";
        return;
    }
    s.ok = true;
    s.references = refs->uintValue();
    Digest d;
    d.add(req.sweep ? stripSweepTimings(result->stringValue())
                    : result->stringValue());
    s.docHash = d.value();
}

Report
runServe(const Options &opts)
{
    Report rep;
    const std::string socket =
        opts.outDir + "/serve-" + std::to_string(::getpid()) + ".sock";
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
        Daemon d(opts.serveBin, socket);
        double s = d.start();
        if (s < 0 || !d.stop())
            die("daemon set-up probe failed");
        setups.push_back(s);
    }

    const std::vector<ServeRequest> universe = serveUniverse();
    const unsigned clients = hostThreads();
    Daemon daemon(opts.serveBin, socket);
    if (daemon.start() < 0)
        die("daemon did not start");

    // One shared send order; each client takes the next entry when its
    // previous request completes (closed loop).
    const std::vector<std::size_t> sequence = requestSequence(
        universe, opts.seed, kMaxServeRequests);
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Sample>> per_client(clients);
    std::atomic<bool> io_failed{false};
    Clock::time_point start = Clock::now();
    RssSampler rss(daemon.pid(), start);
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                Connection conn;
                if (!conn.open(socket)) {
                    io_failed = true;
                    return;
                }
                std::string response;
                while (secondsSince(start) < opts.seconds) {
                    std::size_t k = next.fetch_add(1);
                    if (k >= sequence.size())
                        return;
                    Sample s;
                    s.request = sequence[k];
                    s.sentAt = secondsSince(start);
                    Clock::time_point t0 = Clock::now();
                    if (!conn.roundTrip(universe[s.request].line(k + 1),
                                        response)) {
                        io_failed = true;
                        return;
                    }
                    s.latency = secondsSince(t0);
                    parseResponse(response, universe[s.request], s);
                    per_client[c].push_back(std::move(s));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const std::vector<RssSampler::Sample> rss_samples = rss.stop();
    if (io_failed)
        die("lost the connection to the daemon");

    std::vector<Sample> samples;
    for (std::vector<Sample> &v : per_client)
        samples.insert(samples.end(), v.begin(), v.end());
    std::sort(samples.begin(), samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.sentAt < b.sentAt;
              });

    Connection stats_conn;
    std::string stats_line;
    if (!stats_conn.open(socket) ||
        !stats_conn.roundTrip("{\"id\":1,\"op\":\"stats\"}\n", stats_line))
        die("stats request failed");
    const double hwm_mb = daemon.peakRssMb();
    if (!daemon.stop())
        die("daemon did not drain cleanly");

    // Oracle: every response against the in-process result document.
    std::set<std::size_t> seen_set;
    for (const Sample &s : samples)
        seen_set.insert(s.request);
    std::vector<std::uint64_t> expected(universe.size());
    Digest digest;
    {
        std::vector<std::string> docs(universe.size());
        sbsim::parallelFor(universe.size(), hostThreads(),
                           [&](std::size_t i) {
                               docs[i] = expectedDocument(universe[i]);
                           });
        for (std::size_t i = 0; i < universe.size(); ++i) {
            Digest d;
            d.add(docs[i]);
            expected[i] = d.value();
            digest.add(universe[i].line(0));
            digest.add(docs[i]);
        }
    }

    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(opts.seconds / kWindowSeconds));
    std::vector<double> window_requests(windows, 0);
    std::vector<double> window_refs(windows, 0);
    std::vector<double> latency_ms;
    std::uint64_t errors = 0;
    std::uint64_t wrong = 0;
    std::uint64_t reused = 0;
    std::set<std::string> inputs_seen;
    for (const Sample &s : samples) {
        latency_ms.push_back(s.latency * 1e3);
        if (!inputs_seen
                 .insert(sbsim::service::specSourceKey(
                     universe[s.request].spec))
                 .second)
            ++reused;
        if (!s.ok) {
            ++errors;
            std::fprintf(stderr, "perfbench: request failed: %s\n",
                         s.error.c_str());
            continue;
        }
        if (s.docHash != expected[s.request])
            ++wrong;
        auto w = static_cast<std::size_t>((s.sentAt + s.latency) /
                                          kWindowSeconds);
        if (w < windows) {
            window_requests[w] += 1;
            window_refs[w] += static_cast<double>(s.references);
        }
    }
    std::vector<double> window_peak_mb;
    for (std::size_t w = 0; w < windows; ++w)
        window_peak_mb.push_back(RssSampler::maxIn(
            rss_samples, w * kWindowSeconds, (w + 1) * kWindowSeconds));
    if (wrong)
        std::fprintf(stderr, "perfbench: %llu wrong result documents\n",
                     static_cast<unsigned long long>(wrong));
    rep.attempted = samples.size();
    rep.failed = errors + wrong;
    rep.digest = digest.hex();
    rep.metrics.push_back({"setup_s", "s", median(setups)});
    rep.metrics.push_back(
        {"refs_per_s", "1/s", median(window_refs) / kWindowSeconds});
    rep.metrics.push_back(
        {"req_p50_ms", "ms", percentile(latency_ms, 50)});
    rep.metrics.push_back(
        {"req_p99_ms", "ms", percentile(latency_ms, 99)});
    rep.metrics.push_back(
        {"req_per_s", "1/s", median(window_requests) / kWindowSeconds});
    rep.metrics.push_back({"peak_rss_mb", "MB", median(window_peak_mb)});
    addAccuracy(rep);
    rep.extra =
        "\"req_latency\":\"client_round_trip\",\"requests\":" +
        std::to_string(samples.size()) +
        ",\"vm_hwm_mb\":" + jsonNum(hwm_mb) +
        ",\"distinct_requests\":" + std::to_string(seen_set.size()) +
        ",\"input_reuse_share\":" +
        jsonNum(samples.empty() ? 0
                                : static_cast<double>(reused) /
                                      static_cast<double>(samples.size())) +
        ",\"daemon_stats\":" + stats_line;
    return rep;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            std::string name = value();
            std::optional<Workload> w = parseWorkload(name);
            if (!w)
                die("unknown workload: " + name);
            opts.workload = *w;
            have_workload = true;
        } else if (a == "--seed") {
            opts.seed = std::stoull(value());
        } else if (a == "--seconds") {
            opts.seconds = std::stod(value());
        } else if (a == "--trace") {
            opts.trace = value() != "0";
        } else if (a == "--serve-bin") {
            opts.serveBin = value();
        } else if (a == "--out-dir") {
            opts.outDir = value();
        } else if (a == "--revision") {
            opts.revision = value();
        } else if (a == "--full-oracle") {
            opts.fullOracle = true;
        } else {
            die("unknown argument: " + a);
        }
    }
    if (!have_workload)
        die("--workload is required");
    if (opts.serveBin.empty())
        die("--serve-bin is required");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--probe-setup") == 0) {
        std::optional<Workload> w = parseWorkload(argv[2]);
        if (!w)
            return 2;
        probeSetupChild(*w);
        return 0;
    }
    Options opts;
    Report rep;
    try {
        opts = parseArgs(argc, argv);
        if (opts.trace)
            rep = runTraced(opts);
        else if (opts.workload == Workload::SERVE_MIX)
            rep = runServe(opts);
        else
            rep = runGrid(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    const std::string name = workloadName(opts.workload);
    const std::string header =
        "{\"workload\":\"" + name + "\",\"seed\":" +
        std::to_string(opts.seed) + ",\"trace\":" +
        (opts.trace ? "1" : "0") + ",\"fingerprint\":" +
        hostFingerprintJson(opts.revision) + ",\"digest\":\"" +
        rep.digest + "\"" + (rep.extra.empty() ? "" : "," + rep.extra) +
        "}";
    const std::string result =
        resultLine(rep.failed == 0, rep.attempted, rep.failed, rep.metrics);
    std::ofstream(opts.outDir + "/result-" + name + "-seed" +
                  std::to_string(opts.seed) + "-trace" +
                  (opts.trace ? "1" : "0") + ".json")
        << "{\"run\":" << header << ",\"result\":" << result << "}\n";
    std::cout << header << '\n' << result << std::endl;
    return 0;
}
