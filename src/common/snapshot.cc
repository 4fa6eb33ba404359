#include "common/snapshot.h"

namespace eyecod {
namespace snap {

void
SnapshotWriter::str(const std::string &s)
{
    u32(uint32_t(s.size()));
    for (char c : s)
        u8(uint8_t(c));
}

Status
SnapshotReader::corrupt(const char *what) const
{
    failed_ = true;
    return Status::error(ErrorCode::CorruptSnapshot,
                         "snapshot corrupt at byte %zu/%zu: %s", pos_,
                         size_, what);
}

Result<uint8_t>
SnapshotReader::u8()
{
    if (failed_)
        return corrupt("reader already failed");
    if (pos_ >= size_)
        return corrupt("truncated u8");
    return data_[pos_++];
}

Result<bool>
SnapshotReader::b()
{
    auto v = u8();
    if (!v.ok())
        return v.status();
    if (v.value() > 1)
        return corrupt("bool byte not 0/1");
    return v.value() == 1;
}

Result<uint32_t>
SnapshotReader::u32()
{
    if (failed_)
        return corrupt("reader already failed");
    if (size_ - pos_ < 4)
        return corrupt("truncated u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(data_[pos_ + size_t(i)]) << (8 * i);
    pos_ += 4;
    return v;
}

Result<uint64_t>
SnapshotReader::u64()
{
    if (failed_)
        return corrupt("reader already failed");
    if (size_ - pos_ < 8)
        return corrupt("truncated u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(data_[pos_ + size_t(i)]) << (8 * i);
    pos_ += 8;
    return v;
}

Result<long long>
SnapshotReader::i64()
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    return static_cast<long long>(v.value());
}

Result<int>
SnapshotReader::i32()
{
    auto v = u32();
    if (!v.ok())
        return v.status();
    return static_cast<int>(v.value());
}

Result<double>
SnapshotReader::f64()
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    return std::bit_cast<double>(v.value());
}

Result<float>
SnapshotReader::f32()
{
    auto v = u32();
    if (!v.ok())
        return v.status();
    return std::bit_cast<float>(v.value());
}

Result<std::string>
SnapshotReader::str(size_t max_len)
{
    auto len = u32();
    if (!len.ok())
        return len.status();
    if (len.value() > max_len)
        return corrupt("string length above caller limit");
    if (size_ - pos_ < len.value())
        return corrupt("truncated string body");
    std::string out;
    out.reserve(len.value());
    for (uint32_t i = 0; i < len.value(); ++i)
        out.push_back(char(data_[pos_ + i]));
    pos_ += len.value();
    return out;
}

Result<uint64_t>
SnapshotReader::count(uint64_t max)
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    if (v.value() > max)
        return corrupt("container count above limit");
    return v.value();
}

Status
SnapshotReader::expectTag(uint32_t want)
{
    auto got = u32();
    if (!got.ok())
        return got.status();
    if (got.value() != want) {
        failed_ = true;
        return Status::error(ErrorCode::CorruptSnapshot,
                             "snapshot fence mismatch: want 0x%08x got "
                             "0x%08x at byte %zu",
                             want, got.value(), pos_);
    }
    return Status::ok();
}

Status
SnapshotReader::expectEnd() const
{
    if (!atEnd())
        return Status::error(ErrorCode::CorruptSnapshot,
                             "snapshot has %zu trailing bytes",
                             remaining());
    return Status::ok();
}

void
writeHeader(SnapshotWriter &w)
{
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
}

Status
checkHeader(SnapshotReader &r)
{
    auto magic = r.u32();
    if (!magic.ok())
        return magic.status();
    if (magic.value() != kSnapshotMagic)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "bad snapshot magic 0x%08x", magic.value());
    auto version = r.u32();
    if (!version.ok())
        return version.status();
    if (version.value() != kSnapshotVersion)
        return Status::error(ErrorCode::VersionMismatch,
                             "snapshot version %u, this build reads %u",
                             version.value(), kSnapshotVersion);
    return Status::ok();
}

uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
sealSnapshot(SnapshotWriter &w)
{
    w.u64(fnv1a(w.bytes().data(), w.bytes().size()));
}

Result<size_t>
checkSeal(const uint8_t *data, size_t size)
{
    if (size < 8)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "sealed snapshot too short (%zu bytes)",
                             size);
    const size_t payload = size - 8;
    uint64_t want = 0;
    for (int i = 0; i < 8; ++i)
        want |= uint64_t(data[payload + size_t(i)]) << (8 * i);
    const uint64_t got = fnv1a(data, payload);
    if (got != want)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "snapshot checksum mismatch: stored "
                             "0x%016llx computed 0x%016llx",
                             (unsigned long long)want,
                             (unsigned long long)got);
    return payload;
}

template <bool Loading>
void
Archive<Loading>::image(Image &img, int max_extent)
{
    int h = img.height();
    int w = img.width();
    field(h);
    field(w);
    if constexpr (Loading) {
        if (!ok())
            return;
        if (h < 0 || w < 0 || h > max_extent || w > max_extent)
            return latch(Status::error(ErrorCode::CorruptSnapshot,
                                       "image extent %dx%d outside "
                                       "[0, %d]",
                                       h, w, max_extent));
        // Every pixel is overwritten below; reject before sizing
        // storage from untrusted extents larger than the remaining
        // bytes could ever fill (4 bytes per pixel).
        if (size_t(h) * size_t(w) * 4 > s_.remaining())
            return latch(Status::error(ErrorCode::CorruptSnapshot,
                                       "image body %dx%d exceeds "
                                       "remaining bytes",
                                       h, w));
        img.resetShape(h, w);
        for (float &px : img.data()) {
            Result<float> v = s_.f32();
            if (!v.ok())
                return latch(v.status());
            px = v.value();
        }
    } else {
        for (float px : img.data())
            s_.f32(px);
    }
}

template class Archive<false>;
template class Archive<true>;

} // namespace snap
} // namespace eyecod
