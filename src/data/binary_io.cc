#include "data/binary_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace pinocchio {
namespace {

constexpr char kMagic[8] = {'P', 'I', 'N', 'O', 'D', 'A', 'T', 'A'};
constexpr uint32_t kVersion = 1;

// Structural caps on the length fields. They bound no allocation (a
// 2^32-venue table is 64 GiB): arrays grow only as their bytes arrive (see
// ReadArray), which is what keeps a corrupted count from allocating more
// than the stream holds.
constexpr uint64_t kMaxVenues = 1ull << 32;
constexpr uint64_t kMaxObjects = 1ull << 32;
constexpr uint64_t kMaxPositionsPerObject = 1ull << 24;
constexpr uint32_t kMaxNameLength = 1 << 16;

// Elements an array may grow by before any of its bytes have arrived.
constexpr uint64_t kFirstChunk = 1 << 16;

static_assert(std::is_trivially_copyable_v<Point> &&
                  sizeof(Point) == 2 * sizeof(double),
              "a venue or position is its f64 x, f64 y on disk");

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.gcount() == static_cast<std::streamsize>(sizeof(T));
}

// Reads `count` elements into `*out`: one read up to kFirstChunk
// elements, doubling reads past that. Each read asks for at most as many
// elements as have already arrived, so a count past the end of the stream
// fails having allocated at most kFirstChunk elements or about twice what
// the stream held.
template <typename T>
bool ReadArray(std::istream& in, uint64_t count, std::vector<T>* out) {
  out->clear();
  while (out->size() < count) {
    const size_t done = out->size();
    const auto chunk = static_cast<size_t>(
        std::min<uint64_t>(count - done, std::max<uint64_t>(done, kFirstChunk)));
    out->resize(done + chunk);
    const auto bytes = static_cast<std::streamsize>(chunk * sizeof(T));
    in.read(reinterpret_cast<char*>(out->data() + done), bytes);
    if (in.gcount() != bytes) return false;
  }
  return true;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

void SaveDatasetBinary(const CheckinDataset& dataset, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);

  const auto name_length = static_cast<uint32_t>(dataset.spec.name.size());
  WritePod(out, name_length);
  out.write(dataset.spec.name.data(), name_length);
  WritePod(out, dataset.spec.origin.lat);
  WritePod(out, dataset.spec.origin.lon);
  WritePod(out, dataset.spec.extent_x_km);
  WritePod(out, dataset.spec.extent_y_km);
  WritePod(out, dataset.spec.seed);

  WritePod(out, static_cast<uint64_t>(dataset.venues.size()));
  for (const Point& v : dataset.venues) {
    WritePod(out, v.x);
    WritePod(out, v.y);
  }
  for (int64_t c : dataset.venue_checkins) WritePod(out, c);

  WritePod(out, static_cast<uint64_t>(dataset.objects.size()));
  for (const MovingObject& o : dataset.objects) {
    WritePod(out, o.id);
    WritePod(out, static_cast<uint64_t>(o.positions.size()));
    for (const Point& p : o.positions) {
      WritePod(out, p.x);
      WritePod(out, p.y);
    }
  }
}

bool LoadDatasetBinary(std::istream& in, CheckinDataset* dataset,
                       std::string* error) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad magic: not a PINODATA snapshot");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Fail(error, "truncated header");
  if (version != kVersion) {
    return Fail(error, "unsupported version " + std::to_string(version));
  }

  *dataset = CheckinDataset();
  uint32_t name_length = 0;
  if (!ReadPod(in, &name_length) || name_length > kMaxNameLength) {
    return Fail(error, "bad dataset name length");
  }
  dataset->spec.name.resize(name_length);
  in.read(dataset->spec.name.data(), name_length);
  if (in.gcount() != static_cast<std::streamsize>(name_length)) {
    return Fail(error, "truncated dataset name");
  }
  if (!ReadPod(in, &dataset->spec.origin.lat) ||
      !ReadPod(in, &dataset->spec.origin.lon) ||
      !ReadPod(in, &dataset->spec.extent_x_km) ||
      !ReadPod(in, &dataset->spec.extent_y_km) ||
      !ReadPod(in, &dataset->spec.seed)) {
    return Fail(error, "truncated spec");
  }

  uint64_t venue_count = 0;
  if (!ReadPod(in, &venue_count) || venue_count > kMaxVenues) {
    return Fail(error, "bad venue count");
  }
  if (!ReadArray(in, venue_count, &dataset->venues)) {
    return Fail(error, "truncated venue table");
  }
  if (!ReadArray(in, venue_count, &dataset->venue_checkins)) {
    return Fail(error, "truncated venue counts");
  }
  for (int64_t c : dataset->venue_checkins) {
    if (c < 0) return Fail(error, "negative venue check-in count");
  }

  uint64_t object_count = 0;
  if (!ReadPod(in, &object_count) || object_count > kMaxObjects) {
    return Fail(error, "bad object count");
  }
  // Objects are appended as they are read, for the reason ReadArray grows.
  for (uint64_t k = 0; k < object_count; ++k) {
    MovingObject& o = dataset->objects.emplace_back();
    uint64_t position_count = 0;
    if (!ReadPod(in, &o.id) || !ReadPod(in, &position_count) ||
        position_count > kMaxPositionsPerObject) {
      return Fail(error, "bad object header");
    }
    if (!ReadArray(in, position_count, &o.positions)) {
      return Fail(error, "truncated positions");
    }
  }
  dataset->spec.num_users = dataset->objects.size();
  dataset->spec.num_venues = dataset->venues.size();
  dataset->spec.target_checkins = dataset->TotalCheckins();
  return true;
}

void SaveDatasetBinaryFile(const CheckinDataset& dataset,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PINO_CHECK(out.is_open()) << "cannot create " << path;
  SaveDatasetBinary(dataset, out);
  PINO_CHECK(out.good()) << "write failure on " << path;
}

bool LoadDatasetBinaryFile(const std::string& path, CheckinDataset* dataset,
                           std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return LoadDatasetBinary(in, dataset, error);
}

}  // namespace pinocchio
