#include "io/binfmt.h"

#include <cstring>

#include "util/crc32.h"

namespace hmn::io {
namespace {

void put_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
  }
}

std::uint64_t get_le(std::string_view raw) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(raw[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { put_le(out, v, 1); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v, 4); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v, 8); }

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_bytes(std::string& out, std::string_view bytes) {
  put_u64(out, bytes.size());
  out.append(bytes);
}

void put_u32_vec(std::string& out, const std::vector<std::uint32_t>& v) {
  put_u64(out, v.size());
  for (const std::uint32_t x : v) put_u32(out, x);
}

std::optional<std::string_view> BinReader::raw(std::size_t n) {
  if (n > remaining()) return std::nullopt;
  const std::string_view view = data_.substr(pos_, n);
  pos_ += n;
  return view;
}

std::optional<std::uint8_t> BinReader::take_u8() {
  const auto r = raw(1);
  if (!r) return std::nullopt;
  return static_cast<std::uint8_t>(get_le(*r));
}

std::optional<std::uint32_t> BinReader::take_u32() {
  const auto r = raw(4);
  if (!r) return std::nullopt;
  return static_cast<std::uint32_t>(get_le(*r));
}

std::optional<std::uint64_t> BinReader::take_u64() {
  const auto r = raw(8);
  if (!r) return std::nullopt;
  return get_le(*r);
}

std::optional<double> BinReader::take_f64() {
  const auto bits = take_u64();
  if (!bits) return std::nullopt;
  double v = 0.0;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

std::optional<std::string_view> BinReader::take_bytes() {
  const auto n = take_u64();
  if (!n || *n > remaining()) return std::nullopt;
  return raw(static_cast<std::size_t>(*n));
}

std::optional<std::vector<std::uint32_t>> BinReader::take_u32_vec() {
  const auto n = take_u64();
  if (!n || *n > remaining() / 4) return std::nullopt;
  std::vector<std::uint32_t> v;
  v.reserve(static_cast<std::size_t>(*n));
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto x = take_u32();
    if (!x) return std::nullopt;
    v.push_back(*x);
  }
  return v;
}

void append_frame(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, util::crc32(payload));
  out.append(payload);
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(8 + payload.size());
  append_frame(out, payload);
  return out;
}

std::optional<FrameError> scan_frames(std::string_view data, FrameScan& out) {
  out.frames.clear();
  out.valid_bytes = 0;
  out.torn_tail = false;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t remaining = data.size() - pos;
    if (remaining < 8) {
      // Header cut short: only a crash mid-append leaves this shape.
      out.torn_tail = true;
      break;
    }
    const auto len =
        static_cast<std::uint32_t>(get_le(data.substr(pos, 4)));
    const auto crc =
        static_cast<std::uint32_t>(get_le(data.substr(pos + 4, 4)));
    if (len == 0 || len > kMaxFramePayload) {
      if (remaining == 8 || remaining - 8 < len) {
        // The absurd length is the final header (nothing after it), or it
        // never materialized — indistinguishable from a torn header, so
        // truncate rather than fail.
        out.torn_tail = true;
        break;
      }
      return FrameError{
          "frame at offset " + std::to_string(pos) + " declares length " +
              std::to_string(len) + " (valid: 1.." +
              std::to_string(kMaxFramePayload) +
              ") with further data following — corrupt stream, refusing to "
              "load",
          pos};
    }
    if (remaining - 8 < len) {
      // Payload runs past EOF: torn tail.
      out.torn_tail = true;
      break;
    }
    const std::string_view payload = data.substr(pos + 8, len);
    if (util::crc32(payload) != crc) {
      if (pos + 8 + len == data.size()) {
        // The damaged frame is the very last bytes written — the signature
        // of a torn append, not of bit rot — so it truncates cleanly.
        out.torn_tail = true;
        break;
      }
      return FrameError{
          "frame at offset " + std::to_string(pos) +
              " fails its CRC-32 check with further data following — "
              "corrupt stream, refusing to load",
          pos};
    }
    out.frames.push_back(payload);
    pos += 8 + len;
    out.valid_bytes = pos;
  }
  return std::nullopt;
}

}  // namespace hmn::io
