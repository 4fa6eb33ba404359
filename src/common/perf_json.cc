#include "common/perf_json.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace eyecod {

namespace {

/** Minimal scanner for the {"s": {"m": num}} schema PerfJson writes. */
struct Scanner
{
    const std::string &text;
    size_t pos = 0;
    bool ok = true;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    accept(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!accept(c))
            ok = false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (ok && pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\' && pos < text.size()) {
                const char esc = text[pos++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  default:  c = esc; break;
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    double
    parseNumber()
    {
        skipSpace();
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start) {
            ok = false;
            return 0.0;
        }
        pos += size_t(end - start);
        return v;
    }
};

/** Escape a string for JSON output. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:   out.push_back(c); break;
        }
    }
    return out;
}

} // namespace

PerfJson
PerfJson::load(const std::string &path)
{
    PerfJson out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    Scanner s{text};
    s.expect('{');
    if (!s.accept('}')) {
        do {
            const std::string section = s.parseString();
            s.expect(':');
            s.expect('{');
            if (!s.accept('}')) {
                do {
                    const std::string metric = s.parseString();
                    s.expect(':');
                    const double value = s.parseNumber();
                    if (s.ok)
                        out.sections_[section][metric] = value;
                } while (s.ok && s.accept(','));
                s.expect('}');
            }
        } while (s.ok && s.accept(','));
        s.expect('}');
    }
    if (!s.ok)
        return PerfJson(); // malformed: start fresh
    return out;
}

void
PerfJson::set(const std::string &section, const std::string &metric,
              double value)
{
    sections_[section][metric] = value;
}

bool
PerfJson::has(const std::string &section,
              const std::string &metric) const
{
    const auto it = sections_.find(section);
    return it != sections_.end() &&
           it->second.find(metric) != it->second.end();
}

double
PerfJson::get(const std::string &section, const std::string &metric,
              double fallback) const
{
    const auto it = sections_.find(section);
    if (it == sections_.end())
        return fallback;
    const auto jt = it->second.find(metric);
    return jt == it->second.end() ? fallback : jt->second;
}

std::string
PerfJson::serialize() const
{
    std::ostringstream out;
    out.precision(12);
    out << "{\n";
    bool first_section = true;
    for (const auto &sec : sections_) {
        if (!first_section)
            out << ",\n";
        first_section = false;
        out << "  \"" << escape(sec.first) << "\": {\n";
        bool first_metric = true;
        for (const auto &m : sec.second) {
            if (!first_metric)
                out << ",\n";
            first_metric = false;
            out << "    \"" << escape(m.first) << "\": " << m.second;
        }
        out << "\n  }";
    }
    out << "\n}\n";
    return out.str();
}

bool
PerfJson::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << serialize();
    return bool(out);
}

} // namespace eyecod
