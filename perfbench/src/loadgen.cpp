#include "loadgen.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <random>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Case-insensitive search for a header name at a line start. */
std::size_t
findContentLength(const std::string &in, std::size_t from, std::size_t to)
{
    static const char kName[] = "\r\ncontent-length:";
    const std::size_t len = sizeof(kName) - 1;
    for (std::size_t i = from; i + len <= to; ++i) {
        std::size_t k = 0;
        while (k < len &&
               std::tolower(static_cast<unsigned char>(in[i + k])) ==
                   kName[k])
            ++k;
        if (k == len)
            return i + len;
    }
    return std::string::npos;
}

} // namespace

std::vector<double>
PhaseResult::lateMs() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const RequestRecord &r : records)
        out.push_back(msBetween(r.due, r.sent));
    return out;
}

std::vector<double>
poissonSchedule(double rate, double seconds, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> offsets;
    offsets.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
    for (double t = gap(rng); t < seconds; t += gap(rng))
        offsets.push_back(t);
    return offsets;
}

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections)
    : port_(port), conns_(std::max<std::size_t>(connections, 1))
{
    for (Connection &conn : conns_)
        open(conn);
}

LoadGenerator::~LoadGenerator()
{
    for (Connection &conn : conns_)
        close(conn);
}

void
LoadGenerator::open(Connection &conn)
{
    close(conn);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw std::runtime_error(std::string("loadgen: connect failed: ") +
                                 std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    conn.fd = fd;
}

void
LoadGenerator::close(Connection &conn)
{
    if (conn.fd >= 0)
        ::close(conn.fd);
    conn.fd = -1;
    conn.out.clear();
    conn.out_off = 0;
    conn.in.clear();
    conn.in_off = 0;
    conn.inflight.clear();
}

bool
LoadGenerator::flush(Connection &conn)
{
    while (conn.out_off < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
}

bool
LoadGenerator::receive(Connection &conn, std::vector<RequestRecord> &records,
                       std::size_t &answered)
{
    char buf[65536];
    bool open = true;
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        open = false; // orderly close or error
        break;
    }
    const Clock::time_point now = Clock::now();
    // Parse every complete response buffered so far (Content-Length
    // framing; the server never uses chunked encoding).
    for (;;) {
        const std::size_t head_end = conn.in.find("\r\n\r\n", conn.in_off);
        if (head_end == std::string::npos)
            break;
        const std::size_t cl = findContentLength(conn.in, conn.in_off,
                                                 head_end + 2);
        std::size_t body_len = 0;
        if (cl != std::string::npos)
            body_len = std::strtoull(conn.in.c_str() + cl, nullptr, 10);
        const std::size_t body_at = head_end + 4;
        if (conn.in.size() < body_at + body_len)
            break;
        int status = -1;
        if (conn.in.compare(conn.in_off, 5, "HTTP/") == 0) {
            const std::size_t sp = conn.in.find(' ', conn.in_off);
            if (sp != std::string::npos && sp < head_end)
                status = std::atoi(conn.in.c_str() + sp + 1);
        }
        if (conn.inflight.empty())
            return false; // reply without a request: protocol error
        RequestRecord &record = records[conn.inflight.front()];
        conn.inflight.pop_front();
        record.status = status;
        record.done = now;
        record.body.assign(conn.in, body_at, body_len);
        ++answered;
        if (limit_.count() > 0 && now - record.due > limit_)
            ++over_limit_;
        conn.in_off = body_at + body_len;
    }
    if (conn.in_off > 0 && conn.in_off == conn.in.size()) {
        conn.in.clear();
        conn.in_off = 0;
    } else if (conn.in_off > (1u << 20)) {
        conn.in.erase(0, conn.in_off);
        conn.in_off = 0;
    }
    return open;
}

PhaseResult
LoadGenerator::run(const std::vector<double> &offsets,
                   const std::vector<std::size_t> &payload_of,
                   const std::vector<std::string> &payloads,
                   double drain_timeout_s, double limit_ms,
                   std::size_t stop_after_over)
{
    PhaseResult result;
    std::size_t end = offsets.size(); // requests this phase will send
    result.records.resize(end);
    if (end == 0)
        return result;

    const Clock::time_point start = Clock::now();
    auto dueAt = [&](std::size_t k) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsets[k]));
    };
    const auto drain = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(drain_timeout_s));
    Clock::time_point give_up = dueAt(end - 1) + drain;
    limit_ = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(limit_ms));
    over_limit_ = 0;

    std::vector<pollfd> fds(conns_.size());
    std::size_t next = 0, answered = 0, rr = 0;
    while (answered < end) {
        Clock::time_point now = Clock::now();
        if (stop_after_over > 0 && over_limit_ >= stop_after_over &&
            next < end) {
            // The phase's verdict is settled: send nothing more, only
            // collect what is in flight.
            end = next;
            give_up = now + drain;
            if (answered >= end)
                break;
        }
        while (next < end && dueAt(next) <= now) {
            Connection &conn = conns_[rr++ % conns_.size()];
            RequestRecord &record = result.records[next];
            record.due = dueAt(next);
            record.sent = now;
            record.payload = payload_of[next];
            conn.out += payloads[record.payload];
            conn.inflight.push_back(next);
            if (!flush(conn))
                open(conn); // its in-flight requests stay unanswered
            ++next;
        }
        if (next == end && now >= give_up) {
            result.drained = false;
            break;
        }

        const Clock::time_point wake = next < end ? dueAt(next) : give_up;
        const auto wait_ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                   .count());
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
        timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            fds[c].fd = conns_[c].fd;
            fds[c].events = static_cast<short>(
                POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
            fds[c].revents = 0;
        }
        const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready < 0 && errno != EINTR)
            throw std::runtime_error("loadgen: ppoll failed");
        if (ready <= 0)
            continue;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            Connection &conn = conns_[c];
            bool ok = true;
            if (fds[c].revents & POLLOUT)
                ok = flush(conn);
            if (ok && (fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                ok = receive(conn, result.records, answered);
            if (!ok) {
                // Requests still in flight on a dead connection stay
                // unanswered (status 0) and count as failed.
                open(conn);
            }
        }
    }
    result.records.resize(end);
    if (!result.drained)
        for (Connection &conn : conns_)
            open(conn); // drop replies that would arrive late
    return result;
}

} // namespace perfbench
