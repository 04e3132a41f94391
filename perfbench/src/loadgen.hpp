/**
 * @file
 * Open-loop HTTP load generator for the serving workload.
 *
 * One thread drives up to `connections` keep-alive loopback connections
 * with non-blocking sockets and ppoll(). Requests are written on their
 * schedule whether or not earlier replies have arrived (HTTP/1.1
 * pipelining), so a slow server sees a growing queue instead of a
 * slower client. Every request is timed from its due time, and the
 * generator records how late it ran (send time minus due time).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/** Outcome of one scheduled request. */
struct RequestRecord
{
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point done{};
    int status = 0;          ///< HTTP status; 0 = never answered
    std::size_t payload = 0; ///< index into the payload list
    std::string body;        ///< response body
};

/** Result of one open-loop phase. */
struct PhaseResult
{
    std::vector<RequestRecord> records;
    bool drained = true; ///< every request answered in time

    /** Send time minus due time for every request. */
    std::vector<double> lateMs() const;
};

/** Poisson arrival offsets (seconds from phase start) at `rate` per s. */
std::vector<double> poissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

class LoadGenerator
{
  public:
    LoadGenerator(std::uint16_t port, std::size_t connections);
    ~LoadGenerator();
    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /**
     * Send request k (bytes `payloads[payload_of[k]]`, a complete HTTP
     * request) at `offsets[k]` seconds after the phase starts,
     * round-robin over the connections, and collect the replies. Waits
     * at most `drain_timeout_s` past the last due time; requests still
     * unanswered then stay at status 0 and their connections are
     * reopened. With `stop_after_over` > 0, sending stops once that many
     * replies took longer than `limit_ms` from their due time; the
     * result then holds only the requests sent.
     */
    PhaseResult run(const std::vector<double> &offsets,
                    const std::vector<std::size_t> &payload_of,
                    const std::vector<std::string> &payloads,
                    double drain_timeout_s, double limit_ms = 0,
                    std::size_t stop_after_over = 0);

  private:
    struct Connection
    {
        int fd = -1;
        std::string out;         ///< bytes queued for the socket
        std::size_t out_off = 0; ///< already written prefix of out
        std::string in;          ///< bytes received, not yet parsed
        std::size_t in_off = 0;  ///< parsed prefix of in
        std::deque<std::size_t> inflight; ///< request indices, in order
    };

    void open(Connection &conn);
    void close(Connection &conn);
    /** @return false when the connection failed */
    bool flush(Connection &conn);
    /** @return false when the connection closed or failed */
    bool receive(Connection &conn, std::vector<RequestRecord> &records,
                 std::size_t &answered);

    std::uint16_t port_;
    std::vector<Connection> conns_;
    Clock::duration limit_{};      ///< latency limit of the running phase
    std::size_t over_limit_ = 0;   ///< replies past it so far
};

} // namespace perfbench
