#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace arl::obs
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // Exactly-representable integers print without a fraction so
    // counters look like counters.
    constexpr double ExactLimit = 9007199254740992.0;  // 2^53
    if (value == std::floor(value) && std::fabs(value) < ExactLimit) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

// ---- JsonWriter ----

JsonWriter::JsonWriter(std::ostream &out, unsigned indent_width)
    : os(out), indentWidth(indent_width)
{}

void
JsonWriter::raw(std::string_view text)
{
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void
JsonWriter::indent()
{
    os.put('\n');
    for (std::size_t i = 0; i < stack.size() * indentWidth; ++i)
        os.put(' ');
}

void
JsonWriter::preValue()
{
    if (stack.empty()) {
        ARL_ASSERT(!wroteRoot, "JsonWriter: second root value");
        wroteRoot = true;
        return;
    }
    Level &top = stack.back();
    if (top.array) {
        if (!top.first)
            os.put(',');
        top.first = false;
        indent();
    } else {
        ARL_ASSERT(pendingKey, "JsonWriter: object value without a key");
        pendingKey = false;
    }
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    ARL_ASSERT(!stack.empty() && !stack.back().array,
               "JsonWriter: key() outside an object");
    ARL_ASSERT(!pendingKey, "JsonWriter: key() after key()");
    Level &top = stack.back();
    if (!top.first)
        os.put(',');
    top.first = false;
    indent();
    raw("\"");
    raw(jsonEscape(k));
    raw("\": ");
    pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    os.put('{');
    stack.push_back({false, true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    ARL_ASSERT(!stack.empty() && !stack.back().array && !pendingKey,
               "JsonWriter: unbalanced endObject()");
    bool empty = stack.back().first;
    stack.pop_back();
    if (!empty)
        indent();
    os.put('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    os.put('[');
    stack.push_back({true, true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    ARL_ASSERT(!stack.empty() && stack.back().array,
               "JsonWriter: unbalanced endArray()");
    bool empty = stack.back().first;
    stack.pop_back();
    if (!empty)
        indent();
    os.put(']');
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    preValue();
    raw("\"");
    raw(jsonEscape(v));
    raw("\"");
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    raw(jsonNumber(v));
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    raw(v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    raw(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    preValue();
    raw(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    preValue();
    raw("null");
    return *this;
}

// ---- JsonValue / parser ----

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

namespace
{

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text(text), error(error)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos != text.size())
            return fail("trailing garbage");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error)
            *error = message + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case '{':
          case '[': {
            // Containers recurse: bound the depth so hostile input
            // fails cleanly instead of overflowing the stack.
            if (depth == MaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(MaxDepth));
            ++depth;
            bool ok = text[pos] == '{' ? parseObject(out)
                                       : parseArray(out);
            --depth;
            return ok;
          }
          case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.string);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos;  // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            skipWs();
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos;  // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos;  // '"'
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    break;
                switch (text[pos]) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 >= text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos + 1 + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode (BMP only; surrogate pairs are not
                    // produced by our writer).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                ++pos;
                continue;
            }
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        std::string token(text.substr(start, pos - start));
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        out.type = JsonValue::Type::Number;
        out.number = v;
        return true;
    }

    static constexpr unsigned MaxDepth = 256;

    std::string_view text;
    std::string *error;
    std::size_t pos = 0;
    unsigned depth = 0;
};

} // namespace

bool
jsonParse(std::string_view text, JsonValue &out, std::string *error)
{
    out = JsonValue{};
    return Parser(text, error).parseDocument(out);
}

} // namespace arl::obs
