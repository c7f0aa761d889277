#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/metrics.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
seededPermutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

namespace {

/** A "<field>: <n> kB" line of /proc/<pid>/status, in MiB. */
double
statusMb(pid_t pid, const std::string &field)
{
    std::string path = pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) +
                                      "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0) {
            std::istringstream fields(line.substr(field.size()));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    return statusMb(pid, "VmHWM:");
}

RssSampler::RssSampler(pid_t pid, Clock::time_point origin)
    : pid_(pid), origin_(origin), thread_([this] {
          while (!done_.load()) {
              samples_.push_back(
                  {secondsSince(origin_), statusMb(pid_, "VmRSS:")});
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
      })
{}

RssSampler::~RssSampler()
{
    stop();
}

std::vector<RssSampler::Sample>
RssSampler::stop()
{
    done_ = true;
    if (thread_.joinable())
        thread_.join();
    return samples_;
}

double
RssSampler::maxIn(const std::vector<Sample> &samples, double from,
                  double to)
{
    double peak = 0;
    for (const Sample &s : samples) {
        if (s.at >= from && s.at < to)
            peak = std::max(peak, s.mb);
    }
    return peak;
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

unsigned
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string
hostFingerprintJson(const std::string &revision)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t",
                                                         colon + 1));
            break;
        }
    }
    return "{\"cpu\":" + sbsim::jsonQuote(cpu) +
           ",\"nproc\":" + std::to_string(hostThreads()) +
           ",\"compiler\":" + sbsim::jsonQuote(PERFBENCH_COMPILER) +
           ",\"build_type\":" + sbsim::jsonQuote(PERFBENCH_BUILD_TYPE) +
           ",\"revision\":" + sbsim::jsonQuote(revision) + "}";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += sbsim::jsonQuote(metrics[i].name) + ": {\"value\": " +
               jsonNum(metrics[i].value) +
               ", \"unit\": " + sbsim::jsonQuote(metrics[i].unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
