#ifndef VISUALROAD_COMMON_SERIALIZE_H_
#define VISUALROAD_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace visualroad {

/// Little-endian byte writer for on-disk metadata records.
class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> Take() { return std::move(bytes_); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian reader matching ByteWriter. After any failed
/// read, ok() is false and subsequent reads return zero values.
class ByteCursor {
 public:
  ByteCursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteCursor(const std::vector<uint8_t>& data)
      : ByteCursor(data.data(), data.size()) {}

  uint8_t U8() {
    if (!Require(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t v = data_[pos_] | (data_[pos_ + 1] << 8) | (data_[pos_ + 2] << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  uint64_t U64() {
    uint64_t lo = U32();
    uint64_t hi = U32();
    return lo | (hi << 32);
  }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Require(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= size_; }
  /// Bytes left to read; 0 once a read has failed. A decoder bounds a
  /// peer-supplied count by remaining() / (the element's minimum encoded
  /// size) before looping over it.
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

 private:
  bool Require(size_t n) {
    if (!ok_ || pos_ + n > size_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace visualroad

#endif  // VISUALROAD_COMMON_SERIALIZE_H_
