/**
 * @file
 * Versioned field-wise binary snapshot codec.
 *
 * The serving engine checkpoints its whole live state graph (engine,
 * sessions, queues, pipelines, sensor RNG streams) so a crashed
 * scheduler can restore and resume **bitwise identically** — and so
 * session migration (ROADMAP item 4) can serialize a session over the
 * wire. Two rules govern the format:
 *
 *  1. **Field-wise only.** Every value is encoded one field at a time
 *     through the typed put/get calls below. Whole-struct memcpy /
 *     reinterpret_cast serialization is banned (detlint R9
 *     raw-memcpy-serialize): struct layout, padding, and endianness
 *     are not part of the format.
 *  2. **Never trust input.** Decoding returns typed
 *     `Result<T>` / `Status` values — every read bounds-checks the
 *     remaining byte count, every container count is validated
 *     against a caller-supplied maximum, and every component is
 *     fenced by a tag word. A truncated or bit-flipped snapshot
 *     yields `ErrorCode::CorruptSnapshot` (or `VersionMismatch` for a
 *     foreign version), never a crash or UB.
 *
 * Layout: a snapshot is a flat byte string. Scalars are fixed-width
 * little-endian; floating point travels as its IEEE-754 bit pattern
 * (bit_cast, not memcpy). Strings and byte blobs are u32
 * length-prefixed. Components write `u32 tag` first so a reader that
 * drifts out of sync fails fast at the next fence.
 *
 * Persisted types describe themselves once, in a single field list
 * that drives both directions (the cereal / boost.serialization
 * pattern):
 *
 *     template <class Ar>
 *     Status fields(Ar &ar)
 *     {
 *         ar.tag(kTag);
 *         ar(count_, mean_);      // encoded by C++ type
 *         ar.derived(scratch_);   // rebuilt, never in the stream
 *         return ar.status();
 *     }
 *
 * Archive<false> (SaveArchive) writes each listed field; Archive<true>
 * (LoadArchive) reads it back in the same order, so writer and reader
 * cannot drift apart. The archives are the only code that knows how a
 * C++ type maps to bytes; SnapshotWriter / SnapshotReader below stay
 * the only byte-level code.
 */

#ifndef EYECOD_COMMON_SNAPSHOT_H
#define EYECOD_COMMON_SNAPSHOT_H

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/image.h"
#include "common/status.h"

namespace eyecod {
namespace snap {

/** Format magic ("EYCS") leading every top-level snapshot. */
constexpr uint32_t kSnapshotMagic = 0x45594353u;

/** Current format version. Bump on any layout change. */
constexpr uint32_t kSnapshotVersion = 1;

/**
 * Append-only snapshot encoder. Infallible: the writer owns its
 * buffer and grows it as needed (snapshots are taken off the per-
 * frame hot path, at tick boundaries).
 */
class SnapshotWriter
{
  public:
    /** Append one byte. */
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v); // detlint:allow(R8) snapshot buffer, bounded by state-graph size
    }

    /** Append a bool as one byte (0/1). */
    void b(bool v) { u8(v ? 1 : 0); }

    /** Append a u32, little-endian. */
    void
    u32(uint32_t v)
    {
        u8(uint8_t(v & 0xffu));
        u8(uint8_t((v >> 8) & 0xffu));
        u8(uint8_t((v >> 16) & 0xffu));
        u8(uint8_t((v >> 24) & 0xffu));
    }

    /** Append a u64, little-endian. */
    void
    u64(uint64_t v)
    {
        u32(uint32_t(v & 0xffffffffu));
        u32(uint32_t(v >> 32));
    }

    /** Append a signed 64-bit value (two's-complement bit pattern). */
    void i64(long long v) { u64(uint64_t(v)); }

    /** Append a signed 32-bit value. */
    void i32(int v) { u32(uint32_t(v)); }

    /** Append a double as its IEEE-754 bit pattern. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    /** Append a float as its IEEE-754 bit pattern. */
    void f32(float v) { u32(std::bit_cast<uint32_t>(v)); }

    /** Append a u32 length prefix + raw bytes. */
    void str(const std::string &s);

    /** Append a component fence tag (reader must match it). */
    void tag(uint32_t t) { u32(t); }

    /** The encoded bytes so far. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /** Move the encoded bytes out. */
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Bounds-checked snapshot decoder over a borrowed byte range. Every
 * accessor either returns a value or a typed CorruptSnapshot error;
 * after the first failure the reader stays failed (reads past the
 * end keep erroring, they never wrap or fault).
 */
class SnapshotReader
{
  public:
    SnapshotReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit SnapshotReader(const std::vector<uint8_t> &bytes)
        : SnapshotReader(bytes.data(), bytes.size())
    {
    }

    /** Read one byte. */
    Result<uint8_t> u8();

    /** Read a bool; bytes other than 0/1 are corrupt. */
    Result<bool> b();

    /** Read a little-endian u32. */
    Result<uint32_t> u32();

    /** Read a little-endian u64. */
    Result<uint64_t> u64();

    /** Read a signed 64-bit value. */
    Result<long long> i64();

    /** Read a signed 32-bit value. */
    Result<int> i32();

    /** Read a double from its bit pattern. */
    Result<double> f64();

    /** Read a float from its bit pattern. */
    Result<float> f32();

    /**
     * Read a length-prefixed string; lengths above @p max_len (or
     * past the end of the buffer) are corrupt.
     */
    Result<std::string> str(size_t max_len);

    /**
     * Read a container count and validate it against @p max — a
     * count a hostile snapshot could inflate must never size an
     * allocation unchecked.
     */
    Result<uint64_t> count(uint64_t max);

    /** Read a fence tag and require it to equal @p want. */
    Status expectTag(uint32_t want);

    /** Bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == size_; }

    /** OK only when the whole buffer was consumed exactly. */
    Status expectEnd() const;

    /**
     * Build a CorruptSnapshot error and latch the reader failed:
     * every later read also errors, so a decode routine may issue a
     * batch of reads and check only the last one before touching any
     * value.
     */
    Status corrupt(const char *what) const;

  private:
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    size_t pos_ = 0;
    mutable bool failed_ = false;
};

/** Write the top-level header (magic + version). */
void writeHeader(SnapshotWriter &w);

/**
 * Check the top-level header: CorruptSnapshot on a bad magic,
 * VersionMismatch on a well-formed header from another version.
 */
Status checkHeader(SnapshotReader &r);

/** FNV-1a 64-bit hash of a byte range. */
uint64_t fnv1a(const uint8_t *data, size_t size);

/**
 * Seal a top-level snapshot: append the FNV-1a checksum of every
 * byte written so far as the trailing u64. Any later truncation or
 * bit flip — header, payload, or the checksum itself — is detected
 * before a single payload field is decoded.
 */
void sealSnapshot(SnapshotWriter &w);

/**
 * Verify a sealed snapshot's trailing checksum. Returns the payload
 * byte count (the sealed size minus the checksum), or
 * CorruptSnapshot when the buffer is too short or the checksum does
 * not match.
 */
Result<size_t> checkSeal(const uint8_t *data, size_t size);

/** Per-axis bound on an image extent a snapshot may carry. */
constexpr int kMaxImageExtent = 1 << 14;

template <class T>
struct IsStdArray : std::false_type
{
};
template <class T, size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type
{
};

/**
 * One direction of a fields() list: Archive<false> encodes into a
 * SnapshotWriter, Archive<true> decodes from a SnapshotReader. Every
 * call is valid in both directions; the load side validates as it
 * decodes. The first load failure latches: later calls do nothing,
 * and status() reports that first typed error (CorruptSnapshot).
 */
template <bool Loading>
class Archive
{
  public:
    using Stream =
        std::conditional_t<Loading, SnapshotReader, SnapshotWriter>;

    explicit Archive(Stream &stream) : s_(stream) {}

    /**
     * Encode each field by its C++ type: int -> i32, long / long long
     * -> i64, size_t / uint64_t -> u64, uint8_t -> u8, double -> f64,
     * bool -> b, std::array element-wise, Image via image() with
     * kMaxImageExtent, and any other type through its own fields().
     */
    template <class... T>
    void
    operator()(T &...xs)
    {
        (field(xs), ...);
    }

    /** Component fence tag. */
    void
    tag(uint32_t t)
    {
        if constexpr (Loading) {
            if (ok())
                latch(s_.expectTag(t));
        } else {
            s_.tag(t);
        }
    }

    /**
     * Configuration fingerprint: save writes each value, load reads
     * one of the same type and fails if it differs from @p want.
     */
    template <class... T>
    void
    expect(const T &...want)
    {
        (expectOne(want), ...);
    }

    /**
     * A member rebuilt from configuration or scratch that is never in
     * the stream. Listing it states that it is left out on purpose.
     */
    template <class T>
    void
    derived(const T &)
    {
    }

    /** A derived member that load resets to @p rebuild() (save: no-op). */
    template <class T, class F>
    void
    derived(T &x, F &&rebuild)
    {
        if constexpr (Loading)
            if (ok())
                x = rebuild();
    }

    /**
     * Integer or enum encoded as the wire type W; load rejects a value
     * outside [lo, hi].
     */
    template <class T, class W>
    void
    range(T &x, W lo, W hi)
    {
        W v = W(x);
        field(v);
        if constexpr (Loading) {
            if (!ok())
                return;
            if (v < lo || hi < v)
                latch(s_.corrupt("value out of range"));
            else
                x = T(v);
        }
    }

    /** Presence flag, then the value when present. */
    template <class T>
    void
    optional(std::optional<T> &o)
    {
        bool has = o.has_value();
        field(has);
        if constexpr (Loading) {
            if (!ok())
                return;
            if (!has)
                o.reset();
            else if (!o)
                o.emplace();
        }
        if (has)
            field(*o);
    }

    /**
     * Image extents, then pixels. Load validates each extent against
     * @p max_extent and the pixel count against the remaining bytes
     * before sizing storage (capacity is reused when it fits).
     */
    void image(Image &img, int max_extent);

    /**
     * @p x as its standard stream text (operator<< / operator>>),
     * u32 length-prefixed; load rejects text longer than @p max_len
     * or text that is not what saving the parsed value writes.
     */
    template <class T>
    void
    text(T &x, size_t max_len)
    {
        if constexpr (Loading) {
            if (!ok())
                return;
            Result<std::string> t = s_.str(max_len);
            if (!t.ok())
                return latch(t.status());
            std::istringstream is(t.value());
            T parsed;
            is >> parsed;
            // Only the canonical spelling decodes, so a decoded field
            // re-encodes to exactly the bytes it came from.
            std::ostringstream os;
            os << parsed;
            if (is.fail() || os.str() != t.value())
                return latch(s_.corrupt("non-canonical text field"));
            x = parsed;
        } else {
            std::ostringstream os;
            os << x;
            s_.str(os.str());
        }
    }

    /**
     * Bounded container: u64 count, then each element through
     * @p elem(archive, element). Load rejects a count above @p max
     * before sizing anything, then clears and resizes @p c.
     */
    template <class C, class F>
    void
    seq(C &c, uint64_t max, F &&elem)
    {
        if constexpr (Loading) {
            if (!ok())
                return;
            Result<uint64_t> n = s_.count(max);
            if (!n.ok())
                return latch(n.status());
            c.clear();
            c.resize(size_t(n.value()));
        } else {
            s_.u64(uint64_t(c.size()));
        }
        for (auto &e : c) {
            if (!ok())
                return;
            elem(*this, e);
        }
    }

    /** Bounded container whose elements encode by type. */
    template <class C>
    void
    seq(C &c, uint64_t max)
    {
        seq(c, max, [](Archive &ar, auto &e) { ar(e); });
    }

    /** True until the first load failure. */
    bool ok() const { return status_.isOk(); }

    /** OK, or the first load failure. */
    Status status() const { return status_; }

  private:
    void
    latch(Status s)
    {
        if (status_.isOk())
            status_ = std::move(s);
    }

    /** Move one scalar through the stream's typed put / get pair. */
    template <class T, class V>
    void
    io(T &x, void (SnapshotWriter::*put)(V),
       Result<V> (SnapshotReader::*get)())
    {
        if constexpr (Loading) {
            if (!ok())
                return;
            Result<V> v = (s_.*get)();
            if (v.ok())
                x = T(v.value());
            else
                latch(v.status());
        } else {
            (s_.*put)(V(x));
        }
    }

    template <class T>
    void
    field(T &x)
    {
        if constexpr (std::is_same_v<T, bool>)
            io(x, &SnapshotWriter::b, &SnapshotReader::b);
        else if constexpr (std::is_same_v<T, uint8_t>)
            io(x, &SnapshotWriter::u8, &SnapshotReader::u8);
        else if constexpr (std::is_same_v<T, int>)
            io(x, &SnapshotWriter::i32, &SnapshotReader::i32);
        else if constexpr (std::is_same_v<T, long> ||
                           std::is_same_v<T, long long>)
            io(x, &SnapshotWriter::i64, &SnapshotReader::i64);
        else if constexpr (std::is_same_v<T, unsigned long> ||
                           std::is_same_v<T, unsigned long long>)
            io(x, &SnapshotWriter::u64, &SnapshotReader::u64);
        else if constexpr (std::is_same_v<T, double>)
            io(x, &SnapshotWriter::f64, &SnapshotReader::f64);
        else if constexpr (IsStdArray<T>::value)
            for (auto &e : x)
                field(e);
        else if constexpr (std::is_same_v<T, Image>)
            image(x, kMaxImageExtent);
        else if (ok())
            latch(x.fields(*this));
    }

    template <class T>
    void
    expectOne(const T &want)
    {
        T got = want;
        field(got);
        if constexpr (Loading)
            if (ok() && !(got == want))
                latch(s_.corrupt(
                    "field differs from this configuration"));
    }

    Stream &s_;
    Status status_ = Status::ok();
};

using SaveArchive = Archive<false>;
using LoadArchive = Archive<true>;

extern template class Archive<false>;
extern template class Archive<true>;

/** Encode @p x through its field list (or its by-type encoding). */
template <class T>
void
save(SnapshotWriter &w, const T &x)
{
    SaveArchive ar(w);
    // Saving only reads: the shared field list is written against
    // non-const members so the same body can load.
    ar(const_cast<T &>(x));
}

/** Decode into @p x; the first typed error, or OK. */
template <class T>
Status
restore(SnapshotReader &r, T &x)
{
    LoadArchive ar(r);
    ar(x);
    return ar.status();
}

} // namespace snap
} // namespace eyecod

#endif // EYECOD_COMMON_SNAPSHOT_H
