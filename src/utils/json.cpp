#include "utils/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lightridge {

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw JsonError("json parse error at " + std::to_string(pos_) + ": " +
                        why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && std::isspace(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char get() { char c = peek(); ++pos_; return c; }

    void
    expect(char c)
    {
        if (get() != c)
            fail(std::string("expected '") + c + "'");
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true")) return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false")) return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null")) return Json(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = get();
            if (c == '"')
                return out;
            if (c == '\\') {
                char e = get();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    // Basic-multilingual-plane escapes only; encode as UTF-8.
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = get();
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += h - '0';
                        else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
                        else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
                        else fail("bad \\u escape");
                    }
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
    }

    Json
    parseNumber()
    {
        // The token is the maximal run of number characters; it must be
        // exactly one RFC 8259 number:
        // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (!isJsonNumber(first, last))
            fail("bad number");
        double value = 0;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc() || end != last)
            fail("bad number");
        return Json(value);
    }

    /** True when [p, end) is exactly one RFC 8259 number. */
    static bool
    isJsonNumber(const char *p, const char *end)
    {
        auto digit = [&] { return p < end && *p >= '0' && *p <= '9'; };
        auto digits = [&] {
            if (!digit())
                return false;
            while (digit())
                ++p;
            return true;
        };
        if (p < end && *p == '-')
            ++p;
        if (p < end && *p == '0')
            ++p;
        else if (!digits())
            return false;
        if (p < end && *p == '.') {
            ++p;
            if (!digits())
                return false;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (!digits())
                return false;
        }
        return p == end;
    }

    Json
    parseArray()
    {
        expect('[');
        Json::Array items;
        skipWs();
        if (peek() == ']') { get(); return Json(std::move(items)); }
        for (;;) {
            items.push_back(parseValue());
            skipWs();
            char c = get();
            if (c == ']')
                return Json(std::move(items));
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json::Object members;
        skipWs();
        if (peek() == '}') { get(); return Json(std::move(members)); }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members[key] = parseValue();
            skipWs();
            char c = get();
            if (c == '}')
                return Json(std::move(members));
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

void
dumpString(const std::string &s, std::ostringstream &out)
{
    out << '"';
    for (char c : s) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\r': out << "\\r"; break;
          case '\t': out << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

void
dumpNumber(double n, std::ostringstream &out)
{
    // JSON has no NaN/Inf literal: printing one ("nan", "inf") yields a
    // document parse() rejects, e.g. a diverged model's checkpoint that
    // nobody can load. Refuse instead; undefined fields write null.
    if (!std::isfinite(n)) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%g", n);
        throw std::domain_error(
            std::string("Json::dump: non-finite number ") + buf +
            " has no JSON representation");
    }
    if (n == std::floor(n) && std::abs(n) < 1e15) {
        out << static_cast<long long>(n);
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out << buf;
    }
}

void
dumpValue(const Json &v, std::ostringstream &out, int indent, int depth)
{
    auto pad = [&](int d) {
        if (indent >= 0) {
            out << '\n';
            for (int i = 0; i < d * 2; ++i)
                out << ' ';
        }
    };
    switch (v.type()) {
      case Json::Type::Null: out << "null"; break;
      case Json::Type::Bool: out << (v.asBool() ? "true" : "false"); break;
      case Json::Type::Number: dumpNumber(v.asNumber(), out); break;
      case Json::Type::String: dumpString(v.asString(), out); break;
      case Json::Type::Array: {
        const auto &items = v.asArray();
        if (items.empty()) { out << "[]"; break; }
        out << '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i) out << ',';
            pad(depth + 1);
            dumpValue(items[i], out, indent, depth + 1);
        }
        pad(depth);
        out << ']';
        break;
      }
      case Json::Type::Object: {
        const auto &members = v.asObject();
        if (members.empty()) { out << "{}"; break; }
        out << '{';
        std::size_t i = 0;
        for (const auto &[key, value] : members) {
            if (i++) out << ',';
            pad(depth + 1);
            dumpString(key, out);
            out << (indent >= 0 ? ": " : ":");
            dumpValue(value, out, indent, depth + 1);
        }
        pad(depth);
        out << '}';
        break;
      }
    }
}

} // namespace

std::string
Json::dump() const
{
    std::ostringstream out;
    dumpValue(*this, out, -1, 0);
    return out.str();
}

std::string
Json::pretty(int indent) const
{
    std::ostringstream out;
    dumpValue(*this, out, 2, indent);
    return out.str();
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Json
Json::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw JsonError("cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

bool
Json::save(const std::string &path) const
{
    // Serialize before opening: a non-finite number throws here and must
    // not leave a truncated file in place of the previous one.
    const std::string text = pretty();
    std::ofstream out(path);
    if (!out)
        return false;
    out << text << '\n';
    return static_cast<bool>(out);
}

} // namespace lightridge
