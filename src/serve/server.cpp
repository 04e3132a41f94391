#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "data/synth_digits.hpp"
#include "data/synth_fashion.hpp"

namespace lightridge {

// ---------------------------------------------------------------------
// Shared request-handling core
// ---------------------------------------------------------------------

SampleSource::Sample
SampleSource::sample(const std::string &name, std::uint64_t seed,
                     std::size_t index)
{
    MutexLock lock(mutex_);
    const std::string key = name + ":" + std::to_string(seed);
    ClassDataset &data = cache_[key];
    if (index >= data.size()) {
        // Grow geometrically so monotonically increasing indices stay
        // linear overall instead of regenerating 1,2,...,n.
        const std::size_t count = std::max(index + 1, 2 * data.size());
        if (name == "digits")
            data = makeSynthDigits(count, seed);
        else if (name == "fashion")
            data = makeSynthFashion(count, seed);
        else
            throw JsonError("sample dataset must be digits or fashion, "
                            "got: " +
                            name);
    }
    return Sample{data.images[index], data.labels[index]};
}

namespace {

RealMap
imageFromJson(const Json &j)
{
    const std::size_t rows =
        static_cast<std::size_t>(j.at("rows").asNumber());
    const std::size_t cols =
        static_cast<std::size_t>(j.at("cols").asNumber());
    const Json::Array &data = j.at("data").asArray();
    if (data.size() != rows * cols)
        throw JsonError("request image: data length != rows*cols");
    RealMap image(rows, cols);
    for (std::size_t i = 0; i < data.size(); ++i)
        image[i] = data[i].asNumber();
    return image;
}

} // namespace

ParsedServeRequest
parseServeRequestJson(const Json &j, std::uint64_t fallback_id,
                      SampleSource &samples,
                      const std::string &model_hint)
{
    ParsedServeRequest parsed;
    if (j.has("model")) {
        parsed.request.model = j.at("model").asString();
        if (!model_hint.empty() && parsed.request.model != model_hint)
            throw JsonError("request model \"" + parsed.request.model +
                            "\" does not match URL model \"" +
                            model_hint + "\"");
    } else if (!model_hint.empty()) {
        parsed.request.model = model_hint;
    } else {
        throw JsonError("request needs \"model\"");
    }
    parsed.request.id = static_cast<std::uint64_t>(
        j.numberOr("id", static_cast<double>(fallback_id)));
    if (j.has("image")) {
        parsed.request.image = imageFromJson(j.at("image"));
    } else if (j.has("sample")) {
        const Json &s = j.at("sample");
        SampleSource::Sample drawn = samples.sample(
            s.at("dataset").asString(),
            static_cast<std::uint64_t>(s.numberOr("seed", 1.0)),
            static_cast<std::size_t>(s.numberOr("index", 0.0)));
        parsed.request.image = std::move(drawn.image);
        parsed.label = drawn.label;
    } else {
        throw JsonError("request needs \"image\" or \"sample\"");
    }
    if (j.has("deadline_ms")) {
        // 0 keeps "no deadline"; negative is expired on arrival.
        const double ms = j.at("deadline_ms").asNumber();
        parsed.request.deadline = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    }
    if (j.has("priority")) {
        try {
            parsed.request.priority =
                priorityFromName(j.at("priority").asString());
        } catch (const std::invalid_argument &e) {
            throw JsonError(e.what());
        }
    }
    return parsed;
}

Json
serveResponseJson(const InferResponse &response, int label,
                  bool with_logits)
{
    Json j;
    j["id"] = Json(static_cast<std::size_t>(response.id));
    j["model"] = Json(response.model);
    j["status"] = Json(std::string(serveStatusName(response.status)));
    j["latency_ms"] = Json(response.latency_ms);
    if (response.fan_out > 0)
        j["fan_out"] = Json(response.fan_out);
    if (response.ok()) {
        j["prediction"] = Json(response.prediction);
        if (label >= 0)
            j["label"] = Json(label);
        j["batch_size"] = Json(response.batch_size);
        if (with_logits) {
            Json logits;
            for (Real v : response.logits)
                logits.push(Json(v));
            j["logits"] = std::move(logits);
        }
    } else {
        j["error"] = Json(response.error);
    }
    return j;
}

int
httpStatusForServeStatus(ServeStatus status)
{
    switch (status) {
      case ServeStatus::Ok: return 200;
      case ServeStatus::DeadlineExceeded: return 504;
      case ServeStatus::Overloaded: return 503;
      case ServeStatus::UnknownModel: return 404;
      case ServeStatus::BadInput: return 400;
    }
    return 500;
}

// ---------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------

namespace {

// strerror(3) writes to shared static storage and the server formats
// socket errors from N concurrent IO threads, so it must not be called
// here. These overloads dispatch on the local strerror_r(3) flavour
// (XSI returns int, GNU returns char* and may ignore the buffer)
// without caring which one libc provides.
[[maybe_unused]] std::string
strerrorResult(int rc, const char *buf, int err)
{
    return rc == 0 ? std::string(buf)
                   : "errno " + std::to_string(err);
}

[[maybe_unused]] std::string
strerrorResult(const char *msg, const char *, int)
{
    return std::string(msg);
}

/** Thread-safe strerror(errno) replacement. */
std::string
errnoString(int err)
{
    char buf[256];
    buf[0] = '\0';
    return strerrorResult(::strerror_r(err, buf, sizeof(buf)), buf, err);
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

/**
 * Cross-thread wakeup of one IO thread: an eventfd in its poll set.
 * The IO thread and every wake handle it gave out share ownership, so
 * the fd stays open until the last late completion hook is gone and is
 * never closed or reused under one. A notify() after the loop exited
 * just bumps a counter nobody reads.
 */
struct HttpServer::Wakeup
{
    const int fd;

    Wakeup() : fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC))
    {
        if (fd < 0)
            throw std::runtime_error("HttpServer: eventfd() failed: " +
                                     errnoString(errno));
    }

    ~Wakeup() { ::close(fd); }

    Wakeup(const Wakeup &) = delete;
    Wakeup &operator=(const Wakeup &) = delete;

    void
    notify() const
    {
        const std::uint64_t one = 1;
        // Fails only with EAGAIN on a saturated counter: a wake is
        // already pending then.
        [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
    }

    void
    clear() const
    {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(fd, &count, sizeof(count));
    }
};

struct HttpServer::Connection
{
    int fd = -1;
    std::function<void()> wake; ///< the owning IO thread's wake handle
    HttpParser parser;
    std::string outbuf;
    std::size_t outpos = 0;
    std::unique_ptr<PendingHttpReply> deferred;
    bool deferred_keep_alive = true;
    bool close_after_flush = false;
    bool read_closed = false; ///< peer half-closed its write side
    std::chrono::steady_clock::time_point last_active;

    Connection(int f, std::function<void()> w, HttpParser::Limits limits)
        : fd(f), wake(std::move(w)), parser(limits),
          last_active(std::chrono::steady_clock::now())
    {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    flushed() const
    {
        return outpos >= outbuf.size();
    }
};

HttpServer::HttpServer(HttpServerConfig config, HttpHandler handler)
    : config_(std::move(config)), handler_(std::move(handler))
{
    if (config_.io_threads > 0) {
        io_threads_ = config_.io_threads;
    } else {
        const std::size_t hw = std::thread::hardware_concurrency();
        io_threads_ = std::max<std::size_t>(1, hw / 2);
    }
    io_threads_ = std::min<std::size_t>(io_threads_, 16);
}

HttpServer::~HttpServer() { stop(); }

void
HttpServer::start()
{
    if (running_.load())
        return;
    std::vector<std::shared_ptr<Wakeup>> wakeups(io_threads_);
    for (std::shared_ptr<Wakeup> &wakeup : wakeups)
        wakeup = std::make_shared<Wakeup>();
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error("HttpServer: socket() failed: " +
                                 errnoString(errno));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error(
            "HttpServer: host must be a numeric IPv4 address, got: " +
            config_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 256) != 0) {
        const std::string reason = errnoString(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("HttpServer: cannot listen on " +
                                 config_.host + ":" +
                                 std::to_string(config_.port) + ": " +
                                 reason);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);
    setNonBlocking(listen_fd_);

    running_.store(true);
    wakeups_ = std::move(wakeups);
    threads_.reserve(io_threads_);
    for (const std::shared_ptr<Wakeup> &wakeup : wakeups_)
        threads_.emplace_back([this, wakeup] { ioLoop(wakeup); });
}

void
HttpServer::stop()
{
    running_.store(false);
    for (const std::shared_ptr<Wakeup> &wakeup : wakeups_)
        wakeup->notify();
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
    threads_.clear();
    wakeups_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

HttpTransportStats
HttpServer::transportStats() const
{
    HttpTransportStats stats;
    stats.connections_accepted = connections_accepted_.load();
    stats.connections_rejected = connections_rejected_.load();
    stats.requests = requests_.load();
    stats.parse_errors = parse_errors_.load();
    return stats;
}

std::string
HttpServer::transportMetricsText() const
{
    const HttpTransportStats stats = transportStats();
    std::ostringstream out;
    out << "# TYPE lightridge_http_connections_total counter\n"
        << "lightridge_http_connections_total{result=\"accepted\"} "
        << stats.connections_accepted << "\n"
        << "lightridge_http_connections_total{result=\"rejected\"} "
        << stats.connections_rejected << "\n"
        << "# TYPE lightridge_http_open_connections gauge\n"
        << "lightridge_http_open_connections "
        << open_connections_.load() << "\n"
        << "# TYPE lightridge_http_requests_total counter\n"
        << "lightridge_http_requests_total " << stats.requests << "\n"
        << "# TYPE lightridge_http_parse_errors_total counter\n"
        << "lightridge_http_parse_errors_total " << stats.parse_errors
        << "\n";
    return out.str();
}

void
HttpServer::acceptReady(std::vector<std::unique_ptr<Connection>> &conns,
                        const std::function<void()> &wake)
{
    // Every IO thread polls the shared listening socket; accept() is
    // atomic per connection, so the threads race benignly and whoever
    // wins owns the connection for its lifetime.
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN (another thread won) or transient error
        }
        setNonBlocking(fd);
        setNoDelay(fd);
        if (open_connections_.load() >= config_.max_connections) {
            connections_rejected_.fetch_add(1);
            HttpResponse reject;
            reject.status = 503;
            reject.content_type = "text/plain";
            reject.headers["Retry-After"] = std::to_string(
                config_.retry_after_hint ? config_.retry_after_hint()
                                         : 1);
            reject.body = "connection limit reached\n";
            const std::string bytes =
                serializeHttpResponse(reject, false);
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        open_connections_.fetch_add(1);
        connections_accepted_.fetch_add(1);
        conns.push_back(
            std::make_unique<Connection>(fd, wake, config_.limits));
    }
}

void
HttpServer::processParsed(Connection &conn)
{
    // Answer every fully buffered request in order. A deferred reply
    // parks the connection: later pipelined requests stay buffered in
    // the parser until the deferred response resolves (responses must
    // leave in request order).
    while (!conn.deferred &&
           conn.parser.state() == HttpParser::State::Complete) {
        HttpRequest request = conn.parser.request();
        request.wake = conn.wake;
        const bool keep_alive = request.keepAlive();
        requests_.fetch_add(1);
        HttpHandlerResult result = handler_(std::move(request));
        conn.parser.next();
        if (result.deferred) {
            conn.deferred = std::move(result.deferred);
            conn.deferred_keep_alive = keep_alive;
        } else {
            conn.outbuf += serializeHttpResponse(
                result.response, keep_alive && !conn.close_after_flush);
            if (!keep_alive) {
                conn.close_after_flush = true;
                break;
            }
        }
    }
    if (!conn.deferred &&
        conn.parser.state() == HttpParser::State::Error) {
        parse_errors_.fetch_add(1);
        HttpResponse error;
        error.status = conn.parser.errorStatus();
        Json j;
        j["status"] = Json("bad_input");
        j["error"] = Json(conn.parser.errorReason());
        error.body = j.dump() + "\n";
        conn.outbuf += serializeHttpResponse(error, false);
        conn.close_after_flush = true;
    }
}

bool
HttpServer::serviceRead(Connection &conn)
{
    char buf[16384];
    for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got > 0) {
            conn.last_active = std::chrono::steady_clock::now();
            conn.parser.feed(buf, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) {
            // Peer half-closed; it may still be reading our response
            // (a close-after-request client), so finish outstanding
            // work before dropping the connection.
            conn.read_closed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false; // reset/ broken pipe
    }
    processParsed(conn);
    return true;
}

bool
HttpServer::serviceWrite(Connection &conn)
{
    while (conn.outpos < conn.outbuf.size()) {
        const ssize_t sent =
            ::send(conn.fd, conn.outbuf.data() + conn.outpos,
                   conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
        if (sent > 0) {
            conn.outpos += static_cast<std::size_t>(sent);
            conn.last_active = std::chrono::steady_clock::now();
            continue;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // POLLOUT will resume the flush
        return false;
    }
    conn.outbuf.clear();
    conn.outpos = 0;
    return true;
}

void
HttpServer::ioLoop(const std::shared_ptr<Wakeup> &wakeup)
{
    // The wake handle every request of this thread carries: whatever
    // resolves a deferred reply calls it to cut poll() short.
    const std::function<void()> wake = [wakeup] { wakeup->notify(); };
    // Replies and stop() arrive through the eventfd, so the timeout
    // only paces the keep-alive idle sweep.
    constexpr int kIdleTickMs = 100;
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<pollfd> fds;
    while (running_.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        fds.push_back(pollfd{wakeup->fd, POLLIN, 0});
        for (const auto &conn : conns) {
            short events = 0;
            if (!conn->deferred && !conn->close_after_flush &&
                !conn->read_closed)
                events |= POLLIN;
            if (!conn->flushed())
                events |= POLLOUT;
            fds.push_back(pollfd{conn->fd, events, 0});
        }
        const std::size_t polled = conns.size();
        const int woke = ::poll(fds.data(),
                                static_cast<nfds_t>(fds.size()),
                                kIdleTickMs);
        if (!running_.load(std::memory_order_acquire))
            break;
        if (woke < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        // Clear before checking ready(): a reply that resolves after
        // its check below re-arms the eventfd for the next poll.
        if (fds[1].revents & POLLIN)
            wakeup->clear();
        if (fds[0].revents & POLLIN)
            acceptReady(conns, wake);

        const auto now = std::chrono::steady_clock::now();
        std::vector<std::unique_ptr<Connection>> alive;
        alive.reserve(conns.size());
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Connection &conn = *conns[i];
            const short revents = i < polled ? fds[i + 2].revents : 0;
            bool keep = (revents & POLLNVAL) == 0;
            if (keep && (revents & (POLLIN | POLLHUP)))
                keep = serviceRead(conn);
            while (keep && conn.deferred && conn.deferred->ready()) {
                HttpResponse response = conn.deferred->take();
                conn.deferred.reset();
                const bool keep_alive = conn.deferred_keep_alive &&
                                        !conn.close_after_flush;
                conn.outbuf +=
                    serializeHttpResponse(response, keep_alive);
                if (!keep_alive)
                    conn.close_after_flush = true;
                else
                    processParsed(conn); // pipelined follow-ups
            }
            if (keep && !conn.flushed())
                keep = serviceWrite(conn);
            if (keep && (revents & POLLERR))
                keep = !conn.flushed() ? keep : false;
            if (keep && conn.close_after_flush && conn.flushed() &&
                !conn.deferred)
                keep = false;
            if (keep && conn.read_closed && conn.flushed() &&
                !conn.deferred &&
                conn.parser.state() != HttpParser::State::Complete)
                keep = false;
            if (keep && !conn.deferred && conn.flushed() &&
                config_.idle_timeout_ms > 0 &&
                now - conn.last_active >
                    std::chrono::milliseconds(config_.idle_timeout_ms))
                keep = false;
            if (keep)
                alive.push_back(std::move(conns[i]));
            else
                open_connections_.fetch_sub(1);
        }
        conns.swap(alive);
    }
    open_connections_.fetch_sub(conns.size());
    conns.clear(); // destructors close the sockets
}

// ---------------------------------------------------------------------
// Serving service
// ---------------------------------------------------------------------

namespace {

/** Deferred infer reply: a parked engine future plus how to render it. */
class InferReply : public PendingHttpReply
{
  public:
    InferReply(std::future<InferResponse> future, int label,
               const ServingService *service)
        : future_(std::move(future)), label_(label), service_(service)
    {}

    bool
    ready() override
    {
        return future_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    }

    HttpResponse
    take() override
    {
        try {
            return service_->renderHttp(future_.get(), label_);
        } catch (const std::exception &e) {
            // submit() futures are status-coded; an exception here
            // means the engine died mid-request (broken promise).
            HttpResponse error;
            error.status = 500;
            Json j;
            j["status"] = Json("bad_input");
            j["error"] = Json(std::string(e.what()));
            error.body = j.dump() + "\n";
            return error;
        }
    }

  private:
    std::future<InferResponse> future_;
    int label_;
    const ServingService *service_;
};

HttpResponse
jsonError(int status, const std::string &status_name,
          const std::string &message)
{
    HttpResponse response;
    response.status = status;
    Json j;
    j["status"] = Json(status_name);
    j["error"] = Json(message);
    response.body = j.dump() + "\n";
    return response;
}

} // namespace

ServingService::ServingService(ModelRegistry &registry,
                               InferenceEngine &engine,
                               ServingServiceConfig config)
    : registry_(registry), engine_(engine), config_(config)
{}

void
ServingService::setExtraMetrics(std::function<std::string()> extra)
{
    extra_metrics_ = std::move(extra);
}

ParsedServeRequest
ServingService::parseLine(const Json &j, std::uint64_t fallback_id,
                          const std::string &model_hint)
{
    ParsedServeRequest parsed =
        parseServeRequestJson(j, fallback_id, samples_, model_hint);
    if (parsed.request.deadline.count() == 0 &&
        config_.default_deadline_ms > 0)
        parsed.request.deadline = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                config_.default_deadline_ms));
    return parsed;
}

Json
ServingService::responseJson(const InferResponse &response,
                             int label) const
{
    return serveResponseJson(response, label, config_.with_logits);
}

HttpResponse
ServingService::renderHttp(const InferResponse &response,
                           int label) const
{
    HttpResponse http;
    http.status = httpStatusForServeStatus(response.status);
    if (response.status == ServeStatus::Overloaded)
        http.headers["Retry-After"] =
            std::to_string(engine_.retryAfterSeconds());
    http.body = responseJson(response, label).dump() + "\n";
    return http;
}

HttpHandlerResult
ServingService::handle(HttpRequest &&request)
{
    HttpHandlerResult out;
    const std::string path =
        request.target.substr(0, request.target.find('?'));

    if (path == "/healthz") {
        if (request.method != "GET") {
            out.response = jsonError(405, "bad_input",
                                     "method not allowed; use GET");
            return out;
        }
        out.response.content_type = "text/plain";
        out.response.body = "ok\n";
        return out;
    }

    if (path == "/metrics") {
        if (request.method != "GET") {
            out.response = jsonError(405, "bad_input",
                                     "method not allowed; use GET");
            return out;
        }
        out.response.content_type = "text/plain; version=0.0.4";
        out.response.body = engine_.metrics().renderPrometheus(
            extra_metrics_ ? extra_metrics_() : std::string{});
        return out;
    }

    static const std::string prefix = "/v1/models/";
    static const std::string suffix = "/infer";
    if (path.size() > prefix.size() + suffix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        const std::string model = path.substr(
            prefix.size(), path.size() - prefix.size() - suffix.size());
        if (model.empty() || model.find('/') != std::string::npos) {
            out.response =
                jsonError(404, "unknown_model", "no such route: " + path);
            return out;
        }
        if (request.method != "POST") {
            out.response = jsonError(405, "bad_input",
                                     "method not allowed; use POST");
            out.response.headers["Allow"] = "POST";
            return out;
        }
        return inferRoute(model, std::move(request));
    }

    out.response = jsonError(404, "bad_input", "no such route: " + path);
    return out;
}

HttpHandlerResult
ServingService::inferRoute(const std::string &model,
                           HttpRequest &&request)
{
    HttpHandlerResult out;
    ParsedServeRequest parsed;
    try {
        parsed = parseLine(Json::parse(request.body),
                           next_id_.fetch_add(1), model);
    } catch (const std::exception &e) {
        out.response = jsonError(400, "bad_input", e.what());
        return out;
    }

    // Fast-path unknown models so they never occupy queue capacity;
    // the engine still answers UnknownModel for unload races.
    if (!registry_.has(parsed.request.model)) {
        InferResponse response;
        response.id = parsed.request.id;
        response.model = parsed.request.model;
        response.status = ServeStatus::UnknownModel;
        response.error = "unknown model: " + parsed.request.model;
        out.response = renderHttp(response, parsed.label);
        return out;
    }

    std::future<InferResponse> future;
    try {
        future = engine_.submit(std::move(parsed.request),
                                std::move(request.wake));
    } catch (const std::exception &e) {
        out.response = jsonError(503, "overloaded", e.what());
        out.response.headers["Retry-After"] =
            std::to_string(engine_.retryAfterSeconds());
        return out;
    }
    out.deferred = std::make_unique<InferReply>(std::move(future),
                                                parsed.label, this);
    return out;
}

// ---------------------------------------------------------------------
// Blocking client
// ---------------------------------------------------------------------

HttpClient::HttpClient(std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port)
{}

HttpClient::~HttpClient() { close(); }

void
HttpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    leftover_.clear();
}

void
HttpClient::ensureConnected()
{
    if (fd_ >= 0)
        return;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::runtime_error("HttpClient: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::string reason = errnoString(errno);
        close();
        throw std::runtime_error("HttpClient: cannot connect to " +
                                 host_ + ":" + std::to_string(port_) +
                                 ": " + reason);
    }
    setNoDelay(fd_);
}

HttpResponse
HttpClient::request(const std::string &method, const std::string &target,
                    const std::string &body,
                    const std::string &content_type)
{
    ensureConnected();

    std::string wire;
    wire.reserve(body.size() + 256);
    wire += method + " " + target + " HTTP/1.1\r\n";
    wire += "Host: " + host_ + "\r\n";
    if (!body.empty())
        wire += "Content-Type: " + content_type + "\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    wire += "Connection: keep-alive\r\n\r\n";
    wire += body;

    std::size_t sent_total = 0;
    while (sent_total < wire.size()) {
        const ssize_t sent =
            ::send(fd_, wire.data() + sent_total,
                   wire.size() - sent_total, MSG_NOSIGNAL);
        if (sent < 0 && errno == EINTR)
            continue;
        if (sent <= 0) {
            close();
            throw std::runtime_error("HttpClient: send failed");
        }
        sent_total += static_cast<std::size_t>(sent);
    }

    // Read the response: status line + headers, then a Content-Length
    // body. Anything past it stays buffered for the next request.
    std::string buffer = std::move(leftover_);
    leftover_.clear();
    auto readMore = [&] {
        char chunk[16384];
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got <= 0) {
            close();
            throw std::runtime_error(
                "HttpClient: connection closed mid-response");
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
    };
    std::size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos)
        readMore();

    HttpResponse response;
    std::map<std::string, std::string> headers;
    {
        std::istringstream head(buffer.substr(0, header_end));
        std::string status_line;
        std::getline(head, status_line);
        const std::size_t sp = status_line.find(' ');
        if (status_line.compare(0, 5, "HTTP/") != 0 ||
            sp == std::string::npos) {
            close();
            throw std::runtime_error("HttpClient: bad status line: " +
                                     status_line);
        }
        response.status = std::atoi(status_line.c_str() + sp + 1);
        std::string line;
        while (std::getline(head, line)) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            std::string name = line.substr(0, colon);
            std::transform(name.begin(), name.end(), name.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(
                                   std::tolower(c));
                           });
            std::string value = line.substr(colon + 1);
            const std::size_t first = value.find_first_not_of(" \t");
            value = first == std::string::npos ? std::string{}
                                               : value.substr(first);
            headers[name] = value;
        }
    }
    std::size_t body_size = 0;
    if (headers.count("content-length"))
        body_size = static_cast<std::size_t>(
            std::stoull(headers["content-length"]));
    const std::size_t body_start = header_end + 4;
    while (buffer.size() < body_start + body_size)
        readMore();
    response.body = buffer.substr(body_start, body_size);
    leftover_ = buffer.substr(body_start + body_size);
    if (headers.count("content-type"))
        response.content_type = headers["content-type"];
    response.headers = std::move(headers);
    if (response.headers.count("connection") &&
        response.headers["connection"] == "close")
        close();
    return response;
}

} // namespace lightridge
