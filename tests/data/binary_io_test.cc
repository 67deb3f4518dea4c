#include "data/binary_io.h"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace pinocchio {
namespace {

CheckinDataset SmallDataset() {
  DatasetSpec spec;
  spec.name = "bin-test";
  spec.seed = 77;
  spec.num_users = 40;
  spec.num_venues = 80;
  spec.target_checkins = 1200;
  spec.min_checkins_per_user = 2;
  spec.max_checkins_per_user = 90;
  return GenerateCheckinDataset(spec);
}

TEST(BinaryIoTest, RoundTripIsExact) {
  const CheckinDataset original = SmallDataset();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  SaveDatasetBinary(original, buffer);

  CheckinDataset reloaded;
  std::string error;
  ASSERT_TRUE(LoadDatasetBinary(buffer, &reloaded, &error)) << error;

  EXPECT_EQ(reloaded.spec.name, original.spec.name);
  EXPECT_EQ(reloaded.spec.seed, original.spec.seed);
  EXPECT_DOUBLE_EQ(reloaded.spec.origin.lat, original.spec.origin.lat);
  ASSERT_EQ(reloaded.venues.size(), original.venues.size());
  for (size_t v = 0; v < original.venues.size(); ++v) {
    EXPECT_EQ(reloaded.venues[v], original.venues[v]);
  }
  EXPECT_EQ(reloaded.venue_checkins, original.venue_checkins);
  ASSERT_EQ(reloaded.objects.size(), original.objects.size());
  for (size_t k = 0; k < original.objects.size(); ++k) {
    EXPECT_EQ(reloaded.objects[k].id, original.objects[k].id);
    ASSERT_EQ(reloaded.objects[k].positions.size(),
              original.objects[k].positions.size());
    for (size_t i = 0; i < original.objects[k].positions.size(); ++i) {
      EXPECT_EQ(reloaded.objects[k].positions[i],
                original.objects[k].positions[i]);
    }
  }
  // Derived spec summaries are reconstructed.
  EXPECT_EQ(reloaded.spec.num_users, original.objects.size());
  EXPECT_EQ(reloaded.spec.target_checkins, original.TotalCheckins());
}

TEST(BinaryIoTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTPINODATA garbage";
  CheckinDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadDatasetBinary(buffer, &dataset, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(BinaryIoTest, RejectsEmptyStream) {
  std::stringstream buffer;
  CheckinDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadDatasetBinary(buffer, &dataset, &error));
}

// A snapshot a few hundred bytes long: every field kind, cheap to cut at
// every offset.
CheckinDataset TinyDataset() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.seed = 5;
  spec.num_users = 4;
  spec.num_venues = 6;
  spec.target_checkins = 24;
  spec.min_checkins_per_user = 2;
  spec.max_checkins_per_user = 10;
  return GenerateCheckinDataset(spec);
}

std::string SnapshotBytes(const CheckinDataset& dataset) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  SaveDatasetBinary(dataset, buffer);
  return buffer.str();
}

// Loads `bytes`; on failure returns the error, on success "".
std::string LoadError(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  CheckinDataset dataset;
  std::string error;
  if (LoadDatasetBinary(in, &dataset, &error)) return "";
  return error.empty() ? "(empty error)" : error;
}

TEST(BinaryIoTest, RejectsTruncation) {
  const std::string bytes = SnapshotBytes(TinyDataset());
  ASSERT_EQ(LoadError(bytes), "");
  // Every proper prefix must fail cleanly, with an error.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_NE(LoadError(bytes.substr(0, cut)), "")
        << "cut at " << cut << " of " << bytes.size() << " unexpectedly parsed";
  }
}

// Offsets of the length fields of a snapshot (see the format in
// data/binary_io.h).
size_t VenueCountOffset(const CheckinDataset& dataset) {
  return 8 + 4 + 4 + dataset.spec.name.size() + 5 * 8;
}
size_t ObjectCountOffset(const CheckinDataset& dataset) {
  return VenueCountOffset(dataset) + 8 + dataset.venues.size() * (16 + 8);
}
size_t FirstPositionCountOffset(const CheckinDataset& dataset) {
  return ObjectCountOffset(dataset) + 8 + 4;
}

std::string WithCount(std::string bytes, size_t offset, uint64_t count) {
  std::memcpy(bytes.data() + offset, &count, sizeof(count));
  return bytes;
}

// A count the caps admit but the stream does not hold fails with an error
// once the stream ends, instead of sizing an array from it up front (a
// 2^32 - 1 venue table is 64 GiB).
TEST(BinaryIoTest, RejectsCorruptedCounts) {
  const CheckinDataset dataset = TinyDataset();
  ASSERT_FALSE(dataset.objects.empty());
  const std::string bytes = SnapshotBytes(dataset);
  EXPECT_EQ(LoadError(WithCount(bytes, VenueCountOffset(dataset),
                                (uint64_t{1} << 32) - 1)),
            "truncated venue table");
  EXPECT_EQ(LoadError(WithCount(bytes, ObjectCountOffset(dataset),
                                (uint64_t{1} << 32) - 1)),
            "bad object header");
  EXPECT_EQ(LoadError(WithCount(bytes, FirstPositionCountOffset(dataset),
                                uint64_t{1} << 24)),
            "truncated positions");
  // Past the caps the count itself is refused.
  EXPECT_EQ(LoadError(WithCount(bytes, VenueCountOffset(dataset),
                                (uint64_t{1} << 32) + 1)),
            "bad venue count");
  EXPECT_EQ(LoadError(WithCount(bytes, FirstPositionCountOffset(dataset),
                                (uint64_t{1} << 24) + 1)),
            "bad object header");
}

TEST(BinaryIoTest, RejectsUnsupportedVersion) {
  const CheckinDataset original = SmallDataset();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  SaveDatasetBinary(original, buffer);
  std::string bytes = buffer.str();
  bytes[8] = 99;  // version field follows the 8-byte magic
  std::stringstream corrupted(std::ios::in | std::ios::out |
                              std::ios::binary);
  corrupted.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CheckinDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadDatasetBinary(corrupted, &dataset, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(BinaryIoTest, FileRoundTrip) {
  const CheckinDataset original = SmallDataset();
  const std::string path = ::testing::TempDir() + "/pinocchio_bin_io_test.pino";
  SaveDatasetBinaryFile(original, path);
  CheckinDataset reloaded;
  std::string error;
  ASSERT_TRUE(LoadDatasetBinaryFile(path, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.objects.size(), original.objects.size());
  EXPECT_EQ(reloaded.venue_checkins, original.venue_checkins);
}

TEST(BinaryIoTest, MissingFileReportsError) {
  CheckinDataset dataset;
  std::string error;
  EXPECT_FALSE(LoadDatasetBinaryFile("/nonexistent/path.pino", &dataset,
                                     &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace pinocchio
