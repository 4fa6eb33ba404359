#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    // splitmix64 finalizer over the combined word.
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {
volatile double calibration_sink = 0.0; ///< Keeps the draws live.
} // namespace

double
calibrationMs()
{
    const Clock::time_point t0 = Clock::now();
    std::mt19937_64 engine(0xca1);
    double acc = 0.0;
    for (int i = 0; i < (1 << 17); ++i)
        acc += std::normal_distribution<double>(0.0, 1.0)(engine);
    calibration_sink = acc;
    return msBetween(t0, Clock::now());
}

double
referenceScale(double before_ms, double after_ms)
{
    return 2.0 * kCalibrationRefMs / (before_ms + after_ms);
}

void
ReferenceSteps::beginPass(size_t steps)
{
    pass_ms_.clear();
    pass_ms_.reserve(steps);
    segment_begin_ = 0;
    segment_ms_ = 0.0;
    calibrating_ms_ = 0.0;
    last_calibration_ms_ = calibrationMs();
}

void
ReferenceSteps::step(double ms)
{
    pass_ms_.push_back(ms);
    segment_ms_ += ms;
    if (segment_ms_ < kSegmentMs)
        return;
    const Clock::time_point t0 = Clock::now();
    closeSegment();
    calibrating_ms_ += msBetween(t0, Clock::now());
}

void
ReferenceSteps::closeSegment()
{
    const double now_ms = calibrationMs();
    const double scale = referenceScale(last_calibration_ms_, now_ms);
    for (size_t k = segment_begin_; k < pass_ms_.size(); ++k)
        pass_ms_[k] *= scale;
    segment_begin_ = pass_ms_.size();
    segment_ms_ = 0.0;
    last_calibration_ms_ = now_ms;
}

void
ReferenceSteps::endPass()
{
    closeSegment();
    if (ref_ms_.empty())
        ref_ms_.resize(pass_ms_.size());
    if (pass_ms_.size() != ref_ms_.size())
        throw std::logic_error("passes differ in their step count");
    for (size_t k = 0; k < pass_ms_.size(); ++k)
        ref_ms_[k].push_back(pass_ms_[k]);
}

double
ReferenceSteps::passMs() const
{
    double total = 0.0;
    for (const std::vector<double> &v : ref_ms_)
        total += median(v);
    return total;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now())
{
    if (enabled_) {
        spans_.reserve(size_t(1) << 18);
        open_.reserve(64);
    }
}

int
Tracer::begin(const char *name, long item)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.item = item;
    s.start_ms = msBetween(t0_, Clock::now());
    spans_.push_back(s);
    const int id = int(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[size_t(id)].end_ms = msBetween(t0_, Clock::now());
    open_.pop_back(); // Spans nest: the innermost open span closes.
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.end_ms - s.start_ms);
    return out;
}

double
Tracer::totalMs(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            t += s.end_ms - s.start_ms;
    return t;
}

double
Tracer::childMs(const std::string &parent) const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (s.parent >= 0 && parent == spans_[size_t(s.parent)].name)
            t += s.end_ms - s.start_ms;
    return t;
}

void
Tracer::printSummary() const
{
    std::map<std::string, std::vector<double>> by_name;
    for (const Span &s : spans_)
        by_name[s.name].push_back(s.end_ms - s.start_ms);
    for (const auto &[name, d] : by_name) {
        double total = 0.0;
        for (double x : d)
            total += x;
        std::printf("span    %-40s n=%zu total=%.3f ms p50=%.4f ms "
                    "p99=%.4f ms\n",
                    name.c_str(), d.size(), total, median(d),
                    quantile(d, 0.99));
    }
}

void
Report::set(const std::string &name, double value,
            const std::string &unit, Kind kind, long samples)
{
    metrics_[name] = Metric{value, unit, kind, samples};
}

void
Report::check(const std::string &name, long cases, long failures)
{
    Check &c = checks_[name];
    c.cases += cases;
    c.failures += failures;
}

void
Report::operations(long attempted, long failed)
{
    attempted_ += attempted;
    op_failed_ += failed;
}

bool
Report::has(const std::string &name) const
{
    return metrics_.count(name) != 0;
}

const Report::Metric &
Report::get(const std::string &name) const
{
    const auto it = metrics_.find(name);
    if (it == metrics_.end())
        throw std::out_of_range("no metric " + name);
    return it->second;
}

long
Report::failed() const
{
    long f = op_failed_;
    for (const auto &[name, c] : checks_)
        f += c.failures;
    return f;
}

bool
Report::correct() const
{
    for (const auto &[name, c] : checks_)
        if (c.failures != 0 || c.cases == 0)
            return false;
    return true;
}

namespace {

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Host:
        return "host";
    case Kind::Modeled:
        return "modeled";
    case Kind::Count:
        return "count";
    }
    return "?";
}

} // namespace

void
Report::print() const
{
    for (const auto &[name, c] : checks_)
        std::printf("check   %-40s %s (%ld cases, %ld failed)\n",
                    name.c_str(),
                    c.failures == 0 && c.cases > 0 ? "pass" : "FAIL",
                    c.cases, c.failures);
    for (const auto &[name, m] : metrics_) {
        std::printf("metric  %-40s %.6g %s [%s]", name.c_str(), m.value,
                    m.unit.c_str(), kindName(m.kind));
        if (m.samples >= 0)
            std::printf(" n=%ld", m.samples);
        std::printf("\n");
    }
}

std::string
Report::signature() const
{
    std::string sig;
    char buf[160];
    for (const auto &[name, m] : metrics_) {
        if (m.kind == Kind::Host)
            continue;
        std::snprintf(buf, sizeof(buf), "%s=%a;", name.c_str(),
                      m.value);
        sig += buf;
    }
    for (const auto &[name, c] : checks_) {
        std::snprintf(buf, sizeof(buf), "%s:%ld/%ld;", name.c_str(),
                      c.failures, c.cases);
        sig += buf;
    }
    return sig;
}

std::string
Report::json(
    const std::vector<std::pair<std::string, std::string>> &names) const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed());
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &[name, unit] = names[i];
        double v = 0.0;
        const auto it = metrics_.find(name);
        if (it != metrics_.end())
            v = it->second.value;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + unit + "\"}";
    }
    out += "}}";
    return out;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
