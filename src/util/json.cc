#include "json.h"

#include <cstdio>
#include <cstdlib>

namespace pcon {
namespace util {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    // The range test comes first: casting a value outside long
    // long's range (or NaN) to it is undefined.
    if (v > -1e15 && v < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace util
} // namespace pcon
