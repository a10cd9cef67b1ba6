// Compact binary record framing: the on-disk grammar shared by churn
// traces (io/trace) and the recovery subsystem's write-ahead journal and
// checkpoints.
//
// A stream is a flat sequence of frames:
//
//   [u32 payload length][u32 CRC-32 of payload][payload bytes]
//
// all little-endian, no alignment, no padding.  The framing is what makes
// crash recovery sound: a record is either *entirely* present with a
// matching checksum or it is not a record.  The reader classifies every
// defect it meets:
//
//   * torn tail  — the final frame is incomplete (header cut short, the
//     declared payload runs past EOF, or the checksum of a frame that ends
//     exactly at EOF fails).  This is the expected signature of a crash
//     mid-append: the valid prefix is usable and the reader reports the
//     byte offset to truncate at;
//   * corruption — a frame *inside* the stream fails its checksum, or a
//     declared length is absurd (zero / over the 64 MiB cap) while more
//     bytes follow.  This is never a crash artifact, so it is a loud,
//     descriptive error, not a silent truncation.
//
// Primitive codecs (fixed-width little-endian integers, IEEE-754 doubles
// by bit pattern, length-prefixed strings and id vectors) keep every
// serialized value byte-exact across machines: a double round-trips to
// the identical bits, which the byte-identical-fingerprint recovery gate
// depends on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hmn::io {

/// Upper bound on one frame's payload.  Nothing legitimate (a checkpoint
/// of a bench-scale cluster is kilobytes) comes close; a declared length
/// above it is treated as corruption, bounding reader allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64U * 1024U * 1024U;

// ---- primitive encoders (append to an output buffer) --------------------

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// IEEE-754 bit pattern — exact round trip, unlike any text format.
void put_f64(std::string& out, double v);
/// u64 length prefix + raw bytes.
void put_bytes(std::string& out, std::string_view bytes);
/// u64 count prefix + one u32 per element.
void put_u32_vec(std::string& out, const std::vector<std::uint32_t>& v);

// ---- primitive decoders (cursor over a payload) --------------------------

/// Bounds-checked sequential reader.  Every take_* returns nullopt once
/// the payload is exhausted or a length prefix overruns it; callers treat
/// that as a malformed payload (the frame CRC already passed, so this
/// means an encoder/decoder version skew, not bit rot).
class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> take_u8();
  [[nodiscard]] std::optional<std::uint32_t> take_u32();
  [[nodiscard]] std::optional<std::uint64_t> take_u64();
  [[nodiscard]] std::optional<double> take_f64();
  [[nodiscard]] std::optional<std::string_view> take_bytes();
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> take_u32_vec();

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }
  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] std::optional<std::string_view> raw(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- frame layer ---------------------------------------------------------

/// Appends one [len][crc][payload] frame to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Encodes the frame for `payload` without writing it anywhere — the
/// crash-injection harness uses this to compute how many bytes of a frame
/// a torn write would have persisted.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Outcome of scanning a frame stream.
struct FrameScan {
  /// Payloads of every intact frame, in order.  Views into the scanned
  /// buffer — they live only as long as it does.
  std::vector<std::string_view> frames;
  /// Byte offset just past the last intact frame.  Equal to the buffer
  /// size on a clean stream; smaller when a torn tail was truncated.
  std::size_t valid_bytes = 0;
  /// The final frame was incomplete and was dropped (crash mid-append).
  bool torn_tail = false;
};

struct FrameError {
  std::string message;      // descriptive: offset, what failed, why
  std::size_t offset = 0;   // byte offset of the offending frame header
};

/// Scans a buffer of frames.  Returns an error (loudly — never a silent
/// skip) on mid-stream corruption; a torn *tail* is not an error, it is a
/// truncation recorded in the scan result.
[[nodiscard]] std::optional<FrameError> scan_frames(std::string_view data,
                                                    FrameScan& out);

}  // namespace hmn::io
