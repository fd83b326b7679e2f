/**
 * @file
 * Minimal JSON support for the observability subsystem: a streaming
 * writer (used by the stats/report serializers) and a small DOM +
 * recursive-descent parser (used by the unit tests and the CI smoke
 * check to validate emitted documents without external dependencies).
 */

#ifndef ARL_OBS_JSON_HH
#define ARL_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace arl::obs
{

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * Render a double the way the writer does: integral values within
 * the exactly-representable range print without a fraction, other
 * finite values with enough digits to round-trip, non-finite values
 * as null (JSON has no NaN/Inf).
 */
std::string jsonNumber(double value);

/**
 * Streaming JSON writer with an explicit structure stack.
 *
 * Usage: beginObject()/key()/value()/endObject().  Commas, newlines
 * and indentation are handled internally; misuse (a value with no
 * pending key inside an object, unbalanced end calls) panics.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, unsigned indent_width = 2);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit the key of the next object member. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** True once every begin has been balanced by an end. */
    bool complete() const { return stack.empty() && wroteRoot; }

  private:
    void preValue();
    void indent();
    void raw(std::string_view text);

    struct Level
    {
        bool array = false;
        bool first = true;
    };

    std::ostream &os;
    unsigned indentWidth;
    std::vector<Level> stack;
    bool pendingKey = false;
    bool wroteRoot = false;
};

/** Parsed JSON value (small DOM for tests and validation). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Members in document order (duplicates preserved). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** First member named @p key, or nullptr. */
    const JsonValue *find(std::string_view key) const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed,
 * trailing garbage rejected, objects and arrays nested at most 256
 * deep).
 * @return true on success; on failure @p error (when given) holds a
 *         message with the byte offset.
 */
bool jsonParse(std::string_view text, JsonValue &out,
               std::string *error = nullptr);

} // namespace arl::obs

#endif // ARL_OBS_JSON_HH
