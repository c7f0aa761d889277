/**
 * @file
 * Driving sbsim-serve from the harness: spawn the daemon on a Unix
 * socket, wait until it answers a ping, talk NDJSON over blocking
 * connections, read its peak RSS, and shut it down (always reaping
 * the child, on error paths too).
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <sys/types.h>

#include <string>

namespace perfbench {

/** One blocking client connection (one request in flight). */
class Connection
{
  public:
    Connection() = default;
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Connect to @p socket_path; false when nobody listens yet. */
    bool open(const std::string &socket_path);

    /** Send @p line (newline-terminated) and read one response line
     *  into @p response (newline stripped). False on I/O failure. */
    bool roundTrip(const std::string &line, std::string &response);

  private:
    int fd_ = -1;
    std::string buffered_;
};

/** A spawned sbsim-serve process with default executors. */
class Daemon
{
  public:
    /** @p binary: the sbsim-serve executable; @p socket_path: a
     *  relative path inside the checkout (sun_path is short). */
    Daemon(std::string binary, std::string socket_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Spawn and poll until a ping is answered. @return host seconds
     *  from spawn to the first pong, or a negative value on failure
     *  (the child is reaped). */
    double start();

    /** The daemon's VmHWM in MiB (call before stop()). */
    double peakRssMb() const;

    /** Request a graceful drain and reap the child. @return true when
     *  it acknowledged and exited with status 0. */
    bool stop();

    pid_t pid() const { return pid_; }

  private:
    void kill();

    std::string binary_;
    std::string socket_;
    pid_t pid_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
