#include "snap/snapshot.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

namespace fg::snap {

namespace {

/// CRC-32 lookup tables (IEEE 802.3 reflected polynomial 0xEDB88320),
/// generated once at static-init time. Eight tables for the slicing-by-8
/// sweep: a base image is tens of megabytes and every restore checksums
/// all of it, so the byte-at-a-time loop was the dominant decode cost.
struct CrcTable {
  std::array<std::array<uint32_t, 256>, 8> t{};
  CrcTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
      for (int j = 1; j < 8; ++j)
        t[static_cast<size_t>(j)][i] =
            (t[static_cast<size_t>(j - 1)][i] >> 8) ^
            t[0][t[static_cast<size_t>(j - 1)][i] & 0xFFu];
  }
};
const CrcTable kCrc;

// --- Little-endian primitives over a byte vector. ---------------------------

void put_u8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void put_u32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<uint8_t>* out, int32_t v) {
  put_u32(out, static_cast<uint32_t>(v));
}

void put_i64(std::vector<uint8_t>* out, int64_t v) {
  put_u64(out, static_cast<uint64_t>(v));
}

/// Bounds-checked sequential reader. Every get_* reports underrun through
/// ok(); decoders check once per logical unit, never per field.
class Reader {
 public:
  Reader(std::span<const uint8_t> bytes, size_t at = 0) : bytes_(bytes), at_(at) {}

  bool ok() const { return ok_; }
  size_t at() const { return at_; }
  size_t left() const { return bytes_.size() - at_; }

  bool take(size_t n) {
    if (!ok_ || left() < n) return fail();
    at_ += n;
    return true;
  }

  uint8_t get_u8() {
    if (!ok_ || left() < 1) return fail(), 0;
    return bytes_[at_++];
  }

  uint32_t get_u32() {
    if (!ok_ || left() < 4) return fail(), 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes_[at_++]) << (8 * i);
    return v;
  }

  uint64_t get_u64() {
    if (!ok_ || left() < 8) return fail(), 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes_[at_++]) << (8 * i);
    return v;
  }

  int32_t get_i32() { return static_cast<int32_t>(get_u32()); }
  int64_t get_i64() { return static_cast<int64_t>(get_u64()); }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const uint8_t> bytes_;
  size_t at_ = 0;
  bool ok_ = true;
};

// --- Row and record payload codecs. -----------------------------------------

constexpr size_t kRowBytes = 7 * 4 + 8 + 1;  // 6 handles + height, leaf_count, flags

void put_row(std::vector<uint8_t>* out, const VRow& r) {
  put_i32(out, r.owner);
  put_i32(out, r.other);
  put_i32(out, r.parent);
  put_i32(out, r.left);
  put_i32(out, r.right);
  put_i32(out, r.rep);
  put_i32(out, r.height);
  put_i64(out, r.leaf_count);
  put_u8(out, static_cast<uint8_t>((r.is_leaf ? 1 : 0) | (r.alive ? 2 : 0)));
}

VRow get_row(Reader* r) {
  VRow row;
  row.owner = r->get_i32();
  row.other = r->get_i32();
  row.parent = r->get_i32();
  row.left = r->get_i32();
  row.right = r->get_i32();
  row.rep = r->get_i32();
  row.height = r->get_i32();
  row.leaf_count = r->get_i64();
  uint8_t flags = r->get_u8();
  row.is_leaf = (flags & 1) != 0;
  row.alive = (flags & 2) != 0;
  return row;
}

/// A counted list's element count, sanity-bounded by what the remaining
/// bytes could possibly hold (min_elem_bytes per element) so a corrupt
/// count can never drive a multi-gigabyte allocation.
bool get_count(Reader* r, size_t min_elem_bytes, uint64_t* out) {
  uint64_t n = r->get_u64();
  if (!r->ok() || n > r->left() / (min_elem_bytes == 0 ? 1 : min_elem_bytes))
    return false;
  *out = n;
  return true;
}

void append_magic(std::vector<uint8_t>* out) {
  // A sized resize + memcpy rather than vector::insert, which trips a GCC 12
  // -Wstringop-overflow false positive.
  const size_t at = out->size();
  out->resize(at + kMagicLen);
  std::memcpy(out->data() + at, kMagic, kMagicLen);
}

bool check_magic(Reader* r) {
  if (r->left() < kMagicLen) return false;
  const uint8_t* want = reinterpret_cast<const uint8_t*>(kMagic);
  for (size_t i = 0; i < kMagicLen; ++i)
    if (r->get_u8() != want[i]) return false;
  return r->ok();
}

/// Frame one base section: tag + length + payload + crc32(payload).
void put_section(std::vector<uint8_t>* out, const char tag[4],
                 const std::vector<uint8_t>& payload) {
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(tag),
              reinterpret_cast<const uint8_t*>(tag) + 4);
  put_u64(out, payload.size());
  out->insert(out->end(), payload.begin(), payload.end());
  put_u32(out, crc32(payload));
}

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

void put_delta_payload(std::vector<uint8_t>* out, const WaveDelta& d) {
  put_u64(out, d.epoch_after);
  put_u64(out, d.cursor);
  put_u64(out, d.arena_size_after);
  put_i64(out, d.forest_live_after);
  put_u64(out, d.inserts.size());
  for (const WaveDelta::Insert& ins : d.inserts) {
    put_u32(out, ins.id);
    put_u32(out, static_cast<uint32_t>(ins.neighbors.size()));
    for (uint32_t w : ins.neighbors) put_u32(out, w);
  }
  put_u64(out, d.victims.size());
  for (uint32_t v : d.victims) put_u32(out, v);
  put_u64(out, d.rows.size());
  for (const WaveDelta::Row& row : d.rows) {
    put_u32(out, row.handle);
    put_row(out, row.row);
  }
  put_u64(out, d.slots.size());
  for (const WaveDelta::SlotOp& s : d.slots) {
    put_u32(out, s.owner);
    put_u32(out, s.other);
    put_u8(out, s.present ? 1 : 0);
    put_i32(out, s.leaf);
    put_i32(out, s.helper);
  }
  put_u64(out, d.mult.size());
  for (const WaveDelta::MultOp& m : d.mult) {
    put_u32(out, m.u);
    put_u32(out, m.v);
    put_i32(out, m.count);
  }
}

bool get_delta_payload(std::span<const uint8_t> payload, WaveDelta* d,
                       std::string* error) {
  Reader r(payload);
  d->epoch_after = r.get_u64();
  d->cursor = r.get_u64();
  d->arena_size_after = r.get_u64();
  d->forest_live_after = r.get_i64();
  uint64_t n = 0;
  if (!get_count(&r, 8, &n)) return set_error(error, "delta: bad insert count");
  d->inserts.resize(n);
  for (WaveDelta::Insert& ins : d->inserts) {
    ins.id = r.get_u32();
    uint32_t deg = r.get_u32();
    if (!r.ok() || deg > r.left() / 4)
      return set_error(error, "delta: bad insert degree");
    ins.neighbors.resize(deg);
    for (uint32_t& w : ins.neighbors) w = r.get_u32();
  }
  if (!get_count(&r, 4, &n)) return set_error(error, "delta: bad victim count");
  d->victims.resize(n);
  for (uint32_t& v : d->victims) v = r.get_u32();
  if (!get_count(&r, 4 + kRowBytes, &n))
    return set_error(error, "delta: bad row count");
  d->rows.resize(n);
  for (WaveDelta::Row& row : d->rows) {
    row.handle = r.get_u32();
    row.row = get_row(&r);
  }
  if (!get_count(&r, 17, &n)) return set_error(error, "delta: bad slot count");
  d->slots.resize(n);
  for (WaveDelta::SlotOp& s : d->slots) {
    s.owner = r.get_u32();
    s.other = r.get_u32();
    s.present = r.get_u8() != 0;
    s.leaf = r.get_i32();
    s.helper = r.get_i32();
  }
  if (!get_count(&r, 12, &n)) return set_error(error, "delta: bad mult count");
  d->mult.resize(n);
  for (WaveDelta::MultOp& m : d->mult) {
    m.u = r.get_u32();
    m.v = r.get_u32();
    m.count = r.get_i32();
  }
  if (!r.ok()) return set_error(error, "delta: truncated payload");
  if (r.left() != 0) return set_error(error, "delta: trailing payload bytes");
  return true;
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> bytes, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  // Slicing-by-8: two little-endian words per step, one table per byte
  // lane. Bit-identical to the byte-at-a-time recurrence.
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrc.t[7][lo & 0xFFu] ^ kCrc.t[6][(lo >> 8) & 0xFFu] ^
        kCrc.t[5][(lo >> 16) & 0xFFu] ^ kCrc.t[4][lo >> 24] ^
        kCrc.t[3][hi & 0xFFu] ^ kCrc.t[2][(hi >> 8) & 0xFFu] ^
        kCrc.t[1][(hi >> 16) & 0xFFu] ^ kCrc.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = kCrc.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> encode_base(const BaseImage& image) {
  std::vector<uint8_t> out;
  append_magic(&out);
  put_u8(&out, 'B');
  put_u64(&out, image.wave);
  put_u64(&out, image.epoch);
  put_u64(&out, image.cursor);
  put_u32(&out, 5);  // section count

  std::vector<uint8_t> payload;
  payload.reserve(image.gprime_edges.size() * 8 + 16);
  put_u32(&payload, image.capacity);
  put_u64(&payload, image.gprime_edges.size());
  for (const auto& [u, v] : image.gprime_edges) {
    put_u32(&payload, u);
    put_u32(&payload, v);
  }
  put_section(&out, "GPRM", payload);

  payload.clear();
  put_u64(&payload, image.dead.size());
  for (uint32_t v : image.dead) put_u32(&payload, v);
  put_section(&out, "LIVE", payload);

  payload.clear();
  payload.reserve(image.rows.size() * kRowBytes + 16);
  put_u64(&payload, image.rows.size());
  put_i64(&payload, image.forest_live);
  for (const VRow& r : image.rows) put_row(&payload, r);
  put_section(&out, "FRST", payload);

  payload.clear();
  payload.reserve(image.slots.size() * 16 + 8);
  put_u64(&payload, image.slots.size());
  for (const BaseImage::SlotEntry& s : image.slots) {
    put_u32(&payload, s.owner);
    put_i32(&payload, s.other);
    put_i32(&payload, s.leaf);
    put_i32(&payload, s.helper);
  }
  put_section(&out, "SLOT", payload);

  payload.clear();
  payload.reserve(image.mult.size() * 12 + 8);
  put_u64(&payload, image.mult.size());
  for (const BaseImage::MultEntry& m : image.mult) {
    put_u32(&payload, m.u);
    put_u32(&payload, m.v);
    put_i32(&payload, m.count);
  }
  put_section(&out, "MULT", payload);
  return out;
}

std::vector<uint8_t> encode_log_header() {
  std::vector<uint8_t> out;
  append_magic(&out);
  return out;
}

void append_delta(std::vector<uint8_t>* out, const WaveDelta& delta) {
  std::vector<uint8_t> payload;
  put_delta_payload(&payload, delta);
  put_u8(out, 'D');
  // The frame CRC covers the header fields too, so a bit flip in the wave
  // id or the length is as detectable as one in the payload.
  std::vector<uint8_t> framed;
  put_u64(&framed, delta.wave);
  put_u64(&framed, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  out->insert(out->end(), framed.begin(), framed.end());
  put_u32(out, crc32(framed));
}

bool decode_base(std::span<const uint8_t> bytes, BaseImage* out,
                 std::string* error) {
  Reader r(bytes);
  if (!check_magic(&r)) return set_error(error, "base: bad magic");
  if (r.get_u8() != 'B' || !r.ok())
    return set_error(error, "base: not a base record");
  out->wave = r.get_u64();
  out->epoch = r.get_u64();
  out->cursor = r.get_u64();
  uint32_t sections = r.get_u32();
  if (!r.ok()) return set_error(error, "base: truncated header");
  if (sections != 5) return set_error(error, "base: unexpected section count");

  const char* const kTags[5] = {"GPRM", "LIVE", "FRST", "SLOT", "MULT"};
  for (uint32_t s = 0; s < 5; ++s) {
    char tag[5] = {};
    for (int i = 0; i < 4; ++i) tag[i] = static_cast<char>(r.get_u8());
    uint64_t len = r.get_u64();
    if (!r.ok() || std::strncmp(tag, kTags[s], 4) != 0)
      return set_error(error, std::string("base: expected section ") + kTags[s]);
    if (len > r.left()) return set_error(error, "base: truncated section payload");
    std::span<const uint8_t> payload = bytes.subspan(r.at(), len);
    r.take(len);
    uint32_t want = r.get_u32();
    if (!r.ok()) return set_error(error, "base: truncated section frame");
    if (crc32(payload) != want)
      return set_error(error,
                       std::string("base: section ") + kTags[s] + " CRC mismatch");

    Reader pr(payload);
    uint64_t n = 0;
    switch (s) {
      case 0: {  // GPRM
        out->capacity = pr.get_u32();
        if (!get_count(&pr, 8, &n)) return set_error(error, "base: bad edge count");
        out->gprime_edges.resize(n);
        // The in-memory element layouts below match the little-endian wire
        // layout exactly, so on LE hosts the bounds-checked per-field loops
        // collapse to one memcpy per section (the big-section decode cost is
        // otherwise field extraction, not I/O).
        static_assert(sizeof(std::pair<uint32_t, uint32_t>) == 8);
        static_assert(std::is_standard_layout_v<std::pair<uint32_t, uint32_t>>);
        // n == 0 leaves data() possibly null, which memcpy may not take.
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0)
            std::memcpy(static_cast<void*>(out->gprime_edges.data()),
                        payload.data() + pr.at(), n * 8);
          pr.take(n * 8);
        } else {
          for (auto& [u, v] : out->gprime_edges) {
            u = pr.get_u32();
            v = pr.get_u32();
          }
        }
        break;
      }
      case 1: {  // LIVE
        if (!get_count(&pr, 4, &n)) return set_error(error, "base: bad dead count");
        out->dead.resize(n);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->dead.data(), payload.data() + pr.at(), n * 4);
          pr.take(n * 4);
        } else {
          for (uint32_t& v : out->dead) v = pr.get_u32();
        }
        break;
      }
      case 2: {  // FRST
        if (!get_count(&pr, kRowBytes, &n))
          return set_error(error, "base: bad arena size");
        out->forest_live = pr.get_i64();
        out->rows.resize(n);
        for (VRow& row : out->rows) row = get_row(&pr);
        break;
      }
      case 3: {  // SLOT
        if (!get_count(&pr, 16, &n)) return set_error(error, "base: bad slot count");
        out->slots.resize(n);
        static_assert(sizeof(BaseImage::SlotEntry) == 16);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->slots.data(), payload.data() + pr.at(), n * 16);
          pr.take(n * 16);
        } else {
          for (BaseImage::SlotEntry& e : out->slots) {
            e.owner = pr.get_u32();
            e.other = pr.get_i32();
            e.leaf = pr.get_i32();
            e.helper = pr.get_i32();
          }
        }
        break;
      }
      case 4: {  // MULT
        if (!get_count(&pr, 12, &n)) return set_error(error, "base: bad mult count");
        out->mult.resize(n);
        static_assert(sizeof(BaseImage::MultEntry) == 12);
        if constexpr (std::endian::native == std::endian::little) {
          if (n > 0) std::memcpy(out->mult.data(), payload.data() + pr.at(), n * 12);
          pr.take(n * 12);
        } else {
          for (BaseImage::MultEntry& m : out->mult) {
            m.u = pr.get_u32();
            m.v = pr.get_u32();
            m.count = pr.get_i32();
          }
        }
        break;
      }
    }
    if (!pr.ok()) return set_error(error, std::string("base: truncated ") + kTags[s]);
    if (pr.left() != 0)
      return set_error(error, std::string("base: trailing bytes in ") + kTags[s]);
  }
  if (r.left() != 0) return set_error(error, "base: trailing bytes after sections");
  return true;
}

bool scan_log(std::span<const uint8_t> bytes, LogScan* out, std::string* error) {
  out->deltas.clear();
  out->valid_bytes = 0;
  out->truncated = false;
  out->detail.clear();

  Reader r(bytes);
  if (!check_magic(&r)) return set_error(error, "log: bad magic");
  out->valid_bytes = r.at();

  while (r.left() > 0) {
    auto torn = [&](const std::string& why) {
      out->truncated = true;
      out->detail = why;
      return true;  // recovered: the consistent prefix stands
    };
    size_t frame_start = r.at();
    uint8_t kind = r.get_u8();
    if (kind != 'D') return torn("unknown record kind");
    uint64_t wave = r.get_u64();
    uint64_t len = r.get_u64();
    if (!r.ok() || len > r.left() || r.left() - len < 4)
      return torn("truncated record frame");
    std::span<const uint8_t> payload = bytes.subspan(r.at(), len);
    r.take(len);
    uint32_t want = r.get_u32();
    // Recompute the frame CRC exactly as append_delta framed it.
    std::vector<uint8_t> framed;
    put_u64(&framed, wave);
    put_u64(&framed, len);
    framed.insert(framed.end(), payload.begin(), payload.end());
    if (crc32(framed) != want) return torn("record CRC mismatch");

    WaveDelta delta;
    std::string derr;
    if (!get_delta_payload(payload, &delta, &derr)) return torn(derr);
    delta.wave = wave;
    out->deltas.push_back(std::move(delta));
    out->valid_bytes = r.at();
    (void)frame_start;
  }
  return true;
}

bool read_file(const std::string& path, std::vector<uint8_t>* out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return set_error(error, "cannot open " + path);
  out->clear();
  std::array<uint8_t, 1 << 16> buf;
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
    out->insert(out->end(), buf.data(), buf.data() + n);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return set_error(error, "read error on " + path);
  return true;
}

bool write_file_atomic(const std::string& path, std::span<const uint8_t> bytes,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return set_error(error, "cannot create " + tmp);
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return set_error(error, "write error on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "cannot rename " + tmp + " over " + path);
  }
  return true;
}

bool append_file(const std::string& path, std::span<const uint8_t> bytes,
                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return set_error(error, "cannot open " + path + " for append");
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return set_error(error, "append error on " + path);
  return true;
}

}  // namespace fg::snap
