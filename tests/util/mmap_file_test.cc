#include "util/mmap_file.h"

#include <cstdint>
#include <fstream>

#include <gtest/gtest.h>

#include "test_support.h"

namespace remi {
namespace {

std::string WriteTemp(const std::string& name, const std::string& bytes) {
  const std::string path = test::TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(MmapFileTest, OpensRegularFile) {
  const std::string path = WriteTemp("mmap_basic.bin", "hello mmap");
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->data(), "hello mmap");
  EXPECT_EQ(reinterpret_cast<uintptr_t>(file->data().data()) % 8, 0u);
}

TEST(MmapFileTest, MissingFileIsIoError) {
  EXPECT_TRUE(MmapFile::Open("/nonexistent/x.bin").status().IsIoError());
}

TEST(MmapFileTest, EmptyFile) {
  const std::string path = WriteTemp("mmap_empty.bin", "");
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->data().empty());
  EXPECT_NE(file->data().data(), nullptr);
}

TEST(MmapFileTest, FromBytesIsAlignedCopy) {
  std::string bytes(1000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i % 251);
  }
  const MmapFile file = MmapFile::FromBytes(bytes);
  EXPECT_FALSE(file.is_mapped());
  EXPECT_EQ(file.data(), bytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(file.data().data()) % 8, 0u);
}

TEST(MmapFileTest, MoveTransfersContents) {
  MmapFile a = MmapFile::FromBytes("payload");
  MmapFile b = std::move(a);
  EXPECT_EQ(b.data(), "payload");
  MmapFile c;
  c = std::move(b);
  EXPECT_EQ(c.data(), "payload");
}

}  // namespace
}  // namespace remi
