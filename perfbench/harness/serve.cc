#include "serve.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "common.hh"

namespace perfbench {

namespace {

/** Give up on a daemon that has not answered a ping by then. */
constexpr double kStartTimeoutSeconds = 20.0;

} // namespace

Connection::~Connection()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Connection::open(const std::string &socket_path)
{
    if (fd_ >= 0)
        ::close(fd_);
    buffered_.clear();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return false;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
}

bool
Connection::roundTrip(const std::string &line, std::string &response)
{
    if (fd_ < 0)
        return false;
    std::size_t done = 0;
    while (done < line.size()) {
        ssize_t n = ::send(fd_, line.data() + done, line.size() - done,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    for (;;) {
        std::size_t nl = buffered_.find('\n');
        if (nl != std::string::npos) {
            response = buffered_.substr(0, nl);
            buffered_.erase(0, nl + 1);
            return true;
        }
        char buf[65536];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffered_.append(buf, static_cast<std::size_t>(n));
    }
}

Daemon::Daemon(std::string binary, std::string socket_path)
    : binary_(std::move(binary)), socket_(std::move(socket_path))
{}

Daemon::~Daemon()
{
    kill();
}

double
Daemon::start()
{
    Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0)
        return -1;
    if (pid_ == 0) {
        // Never outlive the harness, even when it is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        // Quiet the daemon's stderr banner and drain report.
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            ::dup2(devnull, STDERR_FILENO);
        ::execl(binary_.c_str(), binary_.c_str(), "--socket",
                socket_.c_str(), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    Connection conn;
    std::string pong;
    while (secondsSince(t0) < kStartTimeoutSeconds) {
        if (conn.open(socket_) &&
            conn.roundTrip("{\"id\":0,\"op\":\"ping\"}\n", pong) &&
            pong.find("\"pong\"") != std::string::npos)
            return secondsSince(t0);
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1; // Died before answering.
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    kill();
    return -1;
}

double
Daemon::peakRssMb() const
{
    return pid_ > 0 ? perfbench::peakRssMb(pid_) : 0;
}

bool
Daemon::stop()
{
    if (pid_ <= 0)
        return false;
    Connection conn;
    std::string ack;
    bool acked = conn.open(socket_) &&
                 conn.roundTrip("{\"id\":0,\"op\":\"shutdown\"}\n", ack) &&
                 ack.find("\"drain\"") != std::string::npos;
    if (!acked) {
        kill();
        return false;
    }
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void
Daemon::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
}

} // namespace perfbench
