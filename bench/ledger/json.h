/**
 * @file
 * Minimal JSON reader and number/string writers for the perf ledger,
 * standard library only (ledger_compare must not link the code it
 * measures). Reads BENCHMARK.json and the per-run result files; throws
 * std::runtime_error on malformed input.
 */

#ifndef IRONMAN_LEDGER_JSON_H
#define IRONMAN_LEDGER_JSON_H

#include <charconv>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ledger::json {

struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    /** Members in document order (the order metrics are listed in). */
    std::vector<std::pair<std::string, Value>> object;

    /** Member @p key, or nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** Member @p key; throws when absent. */
    const Value &
    at(const std::string &key) const
    {
        const Value *v = find(key);
        if (!v)
            throw std::runtime_error("json: missing key \"" + key + "\"");
        return *v;
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos != s.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error("json: " + std::string(what) +
                                 " at offset " + std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\r' ||
                s[pos] == '\t'))
            ++pos;
    }

    bool
    consume(const char *word)
    {
        const std::string w(word);
        if (s.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }

    std::string
    parseString()
    {
        if (s[pos] != '"')
            fail("expected string");
        ++pos;
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                fail("bad escape");
            const char e = s[pos++];
            switch (e) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u':
                // Only ASCII escapes occur in ledger files.
                if (pos + 4 > s.size())
                    fail("bad \\u escape");
                out += char(std::stoi(s.substr(pos, 4), nullptr, 16) & 0x7f);
                pos += 4;
                break;
              default: out += e; break;
            }
        }
        if (pos >= s.size())
            fail("unterminated string");
        ++pos;
        return out;
    }

    Value
    parseValue()
    {
        skipWs();
        if (pos >= s.size())
            fail("unexpected end");
        Value v;
        const char c = s[pos];
        if (c == '{') {
            v.type = Value::Type::Object;
            ++pos;
            skipWs();
            if (s[pos] == '}') {
                ++pos;
                return v;
            }
            for (;;) {
                skipWs();
                std::string key = parseString();
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    fail("expected ':'");
                ++pos;
                v.object.emplace_back(std::move(key), parseValue());
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return v;
                }
                fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            v.type = Value::Type::Array;
            ++pos;
            skipWs();
            if (s[pos] == ']') {
                ++pos;
                return v;
            }
            for (;;) {
                v.array.push_back(parseValue());
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return v;
                }
                fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            v.type = Value::Type::String;
            v.string = parseString();
            return v;
        }
        if (consume("true")) {
            v.type = Value::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consume("false")) {
            v.type = Value::Type::Bool;
            return v;
        }
        if (consume("null"))
            return v;
        const char *first = s.data() + pos;
        const auto [end, ec] =
            std::from_chars(first, s.data() + s.size(), v.number);
        if (ec != std::errc())
            fail("bad value");
        v.type = Value::Type::Number;
        pos += size_t(end - first);
        return v;
    }

    const std::string &s;
    size_t pos = 0;
};

inline Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

inline Value
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

/** Shortest text that reads back as exactly @p v (all its digits). */
inline std::string
number(double v)
{
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

/** @p s as a JSON string literal. */
inline std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

} // namespace ledger::json

#endif // IRONMAN_LEDGER_JSON_H
