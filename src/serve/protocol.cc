#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

namespace pinocchio {
namespace serve {
namespace {

// The library targets little-endian x86-64; a big-endian port would
// byte-swap in Writer::Raw and Reader::Raw.

/// The fewest bytes a T occupies on the wire (a vector or string counts
/// only its u32 prefix): what a claimed element count is charged before
/// the decoder allocates.
template <typename T>
constexpr size_t MinWireBytes() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    return sizeof(uint32_t);
  } else {
    size_t bytes = 0;
    T probe{};
    const auto add = [&bytes]<typename F>(const char*, F&) {
      bytes += MinWireBytes<F>();
    };
    Fields(add, probe);
    return bytes;
  }
}

// The derived guards equal the v5 wire minimums of every vector element.
static_assert(MinWireBytes<UpdateObject>() == 8 &&
              MinWireBytes<Point>() == 16 &&
              MinWireBytes<Observation>() == 28);
static_assert(MinWireBytes<RankedCandidate>() == 13 &&
              MinWireBytes<SkylineEntry>() == 20 &&
              MinWireBytes<DiverseEntry>() == 12 &&
              MinWireBytes<ApproxRankedCandidate>() == 29);

/// Encodes a field list: appends each field in wire order.
class Writer {
 public:
  // Starts with the length prefix, patched by Finish(). One allocation
  // covers every fixed-size frame and short rankings.
  Writer() : bytes_(sizeof(uint32_t)) { bytes_.reserve(256); }

  template <typename T>
  void operator()(const char*, const T& value) {
    Put(value);
  }

  template <typename T>
  void Put(const T& value) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      bytes_.push_back(static_cast<uint8_t>(value));
    } else if constexpr (std::is_arithmetic_v<T>) {
      Raw(&value, sizeof(value));
    } else if constexpr (std::is_same_v<T, std::string>) {
      const size_t len = std::min(value.size(), kMaxErrorMessage);
      Put(static_cast<uint32_t>(len));
      Raw(value.data(), len);
    } else if constexpr (kIsVector<T>) {
      Put(static_cast<uint32_t>(value.size()));
      for (const auto& element : value) Put(element);
    } else {
      Fields(*this, value);
    }
  }

  /// Patches the length prefix and hands over the whole frame.
  std::vector<uint8_t> Finish() {
    const auto len = static_cast<uint32_t>(bytes_.size() - sizeof(uint32_t));
    std::memcpy(bytes_.data(), &len, sizeof(len));
    return std::move(bytes_);
  }

 private:
  void Raw(const void* src, size_t n) {
    const auto* p = static_cast<const uint8_t*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<uint8_t> bytes_;
};

/// Decodes a field list with every wire check. The first failure stops
/// the read and records why; later fields are skipped.
class Reader {
 public:
  /// `finite_doubles` rejects NaN/infinite doubles (request payloads).
  Reader(std::span<const uint8_t> data, bool finite_doubles)
      : data_(data), finite_doubles_(finite_doubles) {}

  /// Reads one field; a no-op once a check has failed.
  template <typename T>
  void operator()(const char* name, T& value) {
    if (why_ != nullptr) return;
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      uint8_t byte = 0;
      if (!Raw(&byte, 1, name)) return;
      if (byte > static_cast<uint8_t>(WireMax(T{}))) {
        return Fail("byte above the field's largest value", name);
      }
      value = static_cast<T>(byte);
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (!Raw(&value, sizeof(value), name)) return;
      if constexpr (std::is_floating_point_v<T>) {
        if (finite_doubles_ && !std::isfinite(value)) {
          return Fail("non-finite double", name);
        }
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      uint32_t len = 0;
      if (!Raw(&len, sizeof(len), name)) return;
      if (len > kMaxErrorMessage || len > Remaining()) {
        return Fail("bad string length", name);
      }
      value.assign(reinterpret_cast<const char*>(data_.data() + offset_), len);
      offset_ += len;
    } else if constexpr (kIsVector<T>) {
      using Element = typename T::value_type;
      uint32_t count = 0;
      if (!Raw(&count, sizeof(count), name)) return;
      // Charge the claimed count against the remaining bytes before
      // allocating, so a hostile count cannot balloon memory.
      constexpr size_t kElementBytes = MinWireBytes<Element>();
      if (static_cast<uint64_t>(count) * kElementBytes > Remaining()) {
        return Fail("element count exceeds the payload", name);
      }
      value.resize(count);
      for (Element& element : value) (*this)(name, element);
    } else {
      Fields(*this, value);
      if (why_ != nullptr) return;
      if (const char* why = WireCheck(value)) Fail(why, name);
    }
  }

  bool AtEnd() const { return offset_ == data_.size(); }
  bool Byte(uint8_t* v) { return Raw(v, 1, ""); }

  /// nullptr while every check has passed.
  const char* why() const { return why_; }
  const char* field() const { return field_; }

 private:
  size_t Remaining() const { return data_.size() - offset_; }

  bool Raw(void* dst, size_t n, const char* name) {
    if (Remaining() < n) {
      Fail("truncated", name);
      return false;
    }
    std::memcpy(dst, data_.data() + offset_, n);
    offset_ += n;
    return true;
  }

  void Fail(const char* why, const char* name) {
    why_ = why;
    field_ = name;
  }

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
  bool finite_doubles_;
  const char* why_ = nullptr;
  const char* field_ = "";
};

template <typename Message, typename Table>
std::vector<uint8_t> Encode(const Message& message, const Table& table) {
  Writer w;
  w.Put(kProtocolVersion);
  w.Put(message.type);
  VisitOp(table, message.type,
          [&](const auto& op, size_t) { w.Put(message.*op.member); });
  return w.Finish();
}

template <typename Message, typename Table>
std::optional<Message> Decode(std::span<const uint8_t> body,
                              std::string* error, const Table& table,
                              const char* kind) {
  const auto fail = [error](std::string reason) -> std::optional<Message> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  if (body.size() > kMaxFrameBody) return fail("frame body over size cap");
  Reader r(body, /*finite_doubles=*/std::is_same_v<Message, Request>);
  uint8_t version = 0;
  if (!r.Byte(&version)) return fail("empty frame body");
  if (version != kProtocolVersion) return fail("unsupported protocol version");
  uint8_t type = 0;
  if (!r.Byte(&type)) return fail(std::string("missing ") + kind + " type");
  Message out;
  const char* name = nullptr;
  VisitOp(table, static_cast<decltype(out.type)>(type),
          [&](const auto& op, size_t) {
            out.type = op.type;
            name = op.name;
            r(op.name, out.*op.member);
          });
  if (name == nullptr) return fail(std::string("unknown ") + kind + " type");
  if (r.why() != nullptr) {
    return fail(std::string(name) + " " + kind + ": " + r.why() + " at '" +
                r.field() + "'");
  }
  if (!r.AtEnd()) return fail("trailing bytes after payload");
  return out;
}

template <typename Table, typename Type>
const char* TypeName(const Table& table, Type type) {
  const char* name = "?";
  VisitOp(table, type, [&](const auto& op, size_t) { name = op.name; });
  return name;
}

}  // namespace

// ------------------------------------------------------------------ codec

const char* WireCheck(const ApproxTopKRequest& m) {
  if (!(m.epsilon > 0.0 && m.epsilon <= 1.0)) {
    return "epsilon must be in (0, 1]";
  }
  if (!(m.delta > 0.0 && m.delta < 1.0)) return "delta must be in (0, 1)";
  return nullptr;
}

const char* WireCheck(const ApproxRankedCandidate& m) {
  if (m.lo > m.estimate || m.estimate > m.hi) {
    return "estimate outside its [lo, hi] bracket";
  }
  return nullptr;
}

std::vector<uint8_t> EncodeRequest(const Request& request) {
  return Encode(request, kRequestOps);
}

std::vector<uint8_t> EncodeResponse(const Response& response) {
  return Encode(response, kResponseOps);
}

std::optional<Request> DecodeRequest(std::span<const uint8_t> body,
                                     std::string* error) {
  return Decode<Request>(body, error, kRequestOps, "request");
}

std::optional<Response> DecodeResponse(std::span<const uint8_t> body,
                                       std::string* error) {
  return Decode<Response>(body, error, kResponseOps, "response");
}

// ---------------------------------------------------------------- framing

void FrameAssembler::Append(std::span<const uint8_t> data) {
  if (poisoned_) return;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<std::vector<uint8_t>> FrameAssembler::NextFrame() {
  if (poisoned_ || buffered_bytes() < sizeof(uint32_t)) return std::nullopt;
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + read_, sizeof(len));
  if (len > kMaxFrameBody) {
    poisoned_ = true;
    return std::nullopt;
  }
  if (buffered_bytes() < sizeof(uint32_t) + len) return std::nullopt;
  const uint8_t* body = buffer_.data() + read_ + sizeof(uint32_t);
  std::vector<uint8_t> frame(body, body + len);
  read_ += sizeof(uint32_t) + len;
  if (read_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
    read_ = 0;
  }
  return frame;
}

// ------------------------------------------------------------------ names

const char* RequestTypeName(RequestType type) {
  return TypeName(kRequestOps, type);
}

const char* ResponseTypeName(ResponseType type) {
  return TypeName(kResponseOps, type);
}

const char* ErrorCodeName(ErrorCode code) {
  static constexpr const char* kNames[] = {
      "none",        "bad-frame",     "unsupported-version", "unknown-type",
      "bad-request", "shutting-down", "internal"};
  const auto index = static_cast<size_t>(code);
  return index < std::size(kNames) ? kNames[index] : "?";
}

const char* WireAlgorithmName(WireAlgorithm algorithm) {
  static constexpr const char* kNames[] = {"pin-vo", "pin", "na"};
  const auto index = static_cast<size_t>(algorithm);
  return index < std::size(kNames) ? kNames[index] : "?";
}

}  // namespace serve
}  // namespace pinocchio
