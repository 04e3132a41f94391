/**
 * @file
 * Minimal-dependency HTTP/1.1 message layer for the socket serving
 * front end: an incremental request parser plus response serialization.
 * No sockets here — the parser consumes whatever byte spans the event
 * loop hands it (split across arbitrarily many reads, or several
 * pipelined requests in one read) and the server layer (serve/server)
 * owns the file descriptors.
 *
 * Scope is deliberately the subset a serving API needs: request line +
 * headers + Content-Length body, keep-alive negotiation, hard limits on
 * line/header/body sizes so a hostile peer cannot balloon memory, and a
 * clean typed rejection (501) of chunked transfer-encoding rather than
 * a hang or a mis-framed read.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>

namespace lightridge {

/** One parsed HTTP request. Header names are lowercased. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< request target, e.g. "/v1/models/m/infer"
    std::string version; ///< "HTTP/1.0" or "HTTP/1.1"
    std::map<std::string, std::string> headers;
    std::string body;

    /**
     * Wake handle of the IO thread that owns the connection, set by
     * HttpServer before the handler runs (empty elsewhere). A handler
     * that returns a deferred reply arranges for this to be called once
     * the reply is ready, so it is written at once. Callable from any
     * thread, any number of times, also after the server has stopped.
     */
    std::function<void()> wake;

    /** Keep-alive per the version default and Connection header. */
    bool keepAlive() const;

    /** Header value or empty string (name must be lowercase). */
    const std::string &header(const std::string &name) const;
};

/** One HTTP response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string content_type = "application/json";
    std::map<std::string, std::string> headers; ///< extra headers
    std::string body;
};

/** Reason phrase for the status codes this server emits. */
const char *httpStatusText(int status);

/**
 * Serialize a response with Content-Length framing and the requested
 * Connection disposition.
 */
std::string serializeHttpResponse(const HttpResponse &response,
                                  bool keep_alive);

/**
 * Incremental HTTP/1.1 request parser. Feed it bytes as they arrive;
 * it answers NeedMore until a full request (including any
 * Content-Length body) is buffered, Complete when `request()` is
 * valid, or Error with an HTTP status + reason describing the
 * rejection. After consuming a Complete request, call `next()` — bytes
 * of a pipelined follow-up request that arrived in the same read are
 * retained and re-parsed, so `state()` may be Complete again
 * immediately.
 */
/** Hard limits a hostile peer cannot push the parser past. (Namespace
 *  scope so it can be a default argument — nested classes with default
 *  member initializers cannot, per the standard's completeness rules.) */
struct HttpParserLimits
{
    std::size_t max_request_line = 8192;  ///< method + target + version
    std::size_t max_header_bytes = 16384; ///< all header lines
    std::size_t max_headers = 64;
    std::size_t max_body = 8u << 20; ///< 8 MiB
};

class HttpParser
{
  public:
    enum class State { NeedMore, Complete, Error };

    using Limits = HttpParserLimits;

    explicit HttpParser(Limits limits = Limits());

    /** Append bytes and advance the parse. Returns the new state. */
    State feed(const char *data, std::size_t size);

    State state() const { return state_; }

    /** Parsed request; valid only when state() == Complete. */
    const HttpRequest &request() const { return request_; }

    /** HTTP status to answer with when state() == Error. */
    int errorStatus() const { return error_status_; }

    /** Human-readable rejection reason when state() == Error. */
    const std::string &errorReason() const { return error_reason_; }

    /**
     * Done with the current Complete request: reset for the next one on
     * the same connection, re-parsing any already-buffered pipelined
     * bytes. Returns the new state.
     */
    State next();

    /** Buffered-but-unparsed byte count (diagnostics/tests). */
    std::size_t bufferedBytes() const { return buffer_.size(); }

  private:
    enum class Phase { RequestLine, Headers, Body };

    State advance();
    State fail(int status, std::string reason);
    bool takeLine(std::string &line);

    Limits limits_;
    std::string buffer_;
    Phase phase_ = Phase::RequestLine;
    State state_ = State::NeedMore;
    HttpRequest request_;
    std::size_t header_bytes_ = 0;
    std::size_t body_expected_ = 0;
    int error_status_ = 0;
    std::string error_reason_;
};

} // namespace lightridge
