// Unit tests for the Episode physical file system: files, directories,
// symlinks, hard links, rename, ACLs, stale FIDs, large files, volumes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/test_util.h"

namespace dfs {
namespace {

TEST(EpisodeTest, FormatAndMountEmptyVolume) {
  TestFs fs = TestFs::Create();
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK_AND_ASSIGN(FileAttr attr, root->GetAttr());
  EXPECT_EQ(attr.type, FileType::kDirectory);
  EXPECT_EQ(attr.nlink, 2u);
  ASSERT_OK_AND_ASSIGN(auto entries, root->ReadDir());
  EXPECT_EQ(entries.size(), 2u);  // "." and ".."
}

TEST(EpisodeTest, CreateWriteReadFile) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/hello.txt", "hello, episode", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/hello.txt"));
  EXPECT_EQ(back, "hello, episode");
}

TEST(EpisodeTest, OverwritePreservesLength) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "first version", TestCred()));
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "v2", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/f"));
  EXPECT_EQ(back, "v2");
}

TEST(EpisodeTest, WriteAtOffsetCreatesHole) {
  TestFs fs = TestFs::Create();
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*fs.vfs, "/sparse", 0644, TestCred()));
  std::string tail = "tail";
  ASSERT_OK(f->Write(10000, std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(tail.data()), tail.size()))
                .status());
  ASSERT_OK_AND_ASSIGN(FileAttr attr, f->GetAttr());
  EXPECT_EQ(attr.size, 10004u);
  std::vector<uint8_t> out(10004);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, out));
  ASSERT_EQ(n, 10004u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[9999], 0);
  EXPECT_EQ(out[10000], 't');
}

TEST(EpisodeTest, LargeFileThroughIndirectBlocks) {
  TestFs fs = TestFs::Create(16384);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*fs.vfs, "/big", 0644, TestCred()));
  // 6 direct blocks = 24 KiB; write 400 KiB to exercise the indirect block.
  std::vector<uint8_t> data(400 * 1024);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_OK(f->Write(0, data).status());
  std::vector<uint8_t> out(data.size());
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, out));
  ASSERT_EQ(n, data.size());
  EXPECT_EQ(out, data);
}

TEST(EpisodeTest, DoubleIndirectFile) {
  TestFs fs = TestFs::Create(32768, [] {
    Aggregate::Options o;
    o.cache_blocks = 2048;
    o.log_blocks = 1024;
    return o;
  }());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*fs.vfs, "/huge", 0644, TestCred()));
  // Beyond 6 + 512 blocks (2072 KiB) to reach the double-indirect tree.
  uint64_t offset = (kDirectBlocks + kPtrsPerBlock + 3) * uint64_t{kBlockSize};
  std::string probe = "deep data";
  ASSERT_OK(f->Write(offset, std::span<const uint8_t>(
                                 reinterpret_cast<const uint8_t*>(probe.data()), probe.size()))
                .status());
  std::vector<uint8_t> out(probe.size());
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(offset, out));
  ASSERT_EQ(n, probe.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), probe);
}

TEST(EpisodeTest, OverwriteReadsOnlyPartialBlocks) {
  // A 64-block buffer cache under a 256-block file: the file's first blocks
  // are long evicted when they are overwritten. A whole-block overwrite
  // reads nothing from the disk; a 100-byte write into an uncached block
  // reads the block and keeps its other bytes.
  constexpr uint64_t kFileBlocks = 256;
  Aggregate::Options opts;
  opts.cache_blocks = 64;
  TestFs fs = TestFs::Create(8192, opts);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*fs.vfs, "/big", 0644, TestCred()));
  ASSERT_OK(f->Write(0, std::vector<uint8_t>(kFileBlocks * kBlockSize, 'a')).status());
  ASSERT_OK(fs.agg->Checkpoint());
  // Warm the metadata the overwrite walks (superblock, volume slot, anode,
  // indirect and refcount blocks) with a byte written into the last block.
  ASSERT_OK(f->Write(kFileBlocks * kBlockSize - 1, std::vector<uint8_t>(1, 'a')).status());

  uint64_t reads_before = fs.disk->stats().reads;
  ASSERT_OK(f->Write(0, std::vector<uint8_t>(16 * kBlockSize, 'b')).status());
  EXPECT_EQ(fs.disk->stats().reads, reads_before) << "16 whole blocks overwritten unread";

  constexpr uint64_t kPartialOffset = 40 * kBlockSize + 1000;
  reads_before = fs.disk->stats().reads;
  ASSERT_OK(f->Write(kPartialOffset, std::vector<uint8_t>(100, 'c')).status());
  EXPECT_GT(fs.disk->stats().reads, reads_before) << "a partial write merges with the disk";

  auto check = [&](VnodeRef& file) {
    std::vector<uint8_t> out(kFileBlocks * kBlockSize);
    ASSERT_OK_AND_ASSIGN(size_t n, file->Read(0, out));
    ASSERT_EQ(n, out.size());
    std::vector<uint8_t> want(kFileBlocks * kBlockSize, 'a');
    std::fill_n(want.begin(), 16 * kBlockSize, 'b');
    std::fill_n(want.begin() + kPartialOffset, 100, 'c');
    EXPECT_TRUE(out == want);
  };
  check(f);
  // Reading the whole file through the small cache has evicted, and so
  // written back, both overwrites; the log holds their metadata.
  ASSERT_OK(fs.agg->SyncLog());
  fs.CrashAndRemount(opts);
  ASSERT_OK_AND_ASSIGN(VnodeRef again, ResolvePath(*fs.vfs, "/big"));
  check(again);
}

TEST(EpisodeTest, TruncateShrinkAndReextend) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/t", "abcdefghij", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*fs.vfs, "/t"));
  ASSERT_OK(f->Truncate(4));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, f->GetAttr());
  EXPECT_EQ(attr.size, 4u);
  // Re-extend: the tail must read as zeros, not stale bytes.
  ASSERT_OK(f->Truncate(8));
  std::vector<uint8_t> out(8);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, out));
  ASSERT_EQ(n, 8u);
  EXPECT_EQ(std::string(out.begin(), out.begin() + 4), "abcd");
  EXPECT_EQ(out[4], 0);
  EXPECT_EQ(out[7], 0);
}

TEST(EpisodeTest, TruncateLargeFileFreesBlocks) {
  TestFs fs = TestFs::Create(16384);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*fs.vfs, "/big", 0644, TestCred()));
  std::vector<uint8_t> data(300 * 1024, 0xAA);
  ASSERT_OK(f->Write(0, data).status());
  ASSERT_OK_AND_ASSIGN(VolumeInfo before, fs.agg->GetVolume(fs.volume_id));
  ASSERT_OK(f->Truncate(0));
  ASSERT_OK_AND_ASSIGN(VolumeInfo after, fs.agg->GetVolume(fs.volume_id));
  EXPECT_LT(after.blocks_used, before.blocks_used);
  ASSERT_OK_AND_ASSIGN(FileAttr attr, f->GetAttr());
  EXPECT_EQ(attr.size, 0u);
}

TEST(EpisodeTest, MkdirAndNesting) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/a", 0755, TestCred()).status());
  ASSERT_OK(MkdirAt(*fs.vfs, "/a/b", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*fs.vfs, "/a/b/c.txt", "nested", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/a/b/c.txt"));
  EXPECT_EQ(back, "nested");
  // Parent link counts: root has "a" (nlink 2 + 1 subdir), /a has 2 + 1.
  ASSERT_OK_AND_ASSIGN(VnodeRef a, ResolvePath(*fs.vfs, "/a"));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, a->GetAttr());
  EXPECT_EQ(attr.nlink, 3u);
}

TEST(EpisodeTest, DotAndDotDotResolve) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/d", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*fs.vfs, "/d/f", "dots", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/d/./../d/f"));
  EXPECT_EQ(back, "dots");
}

TEST(EpisodeTest, UnlinkRemovesFile) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/gone", "bye", TestCred()));
  ASSERT_OK(UnlinkAt(*fs.vfs, "/gone"));
  EXPECT_EQ(ResolvePath(*fs.vfs, "/gone").code(), ErrorCode::kNotFound);
}

TEST(EpisodeTest, UnlinkDirectoryFails) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/d", 0755, TestCred()).status());
  EXPECT_EQ(UnlinkAt(*fs.vfs, "/d").code(), ErrorCode::kIsDirectory);
}

TEST(EpisodeTest, RmdirRequiresEmpty) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/d", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*fs.vfs, "/d/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  EXPECT_EQ(root->Rmdir("d").code(), ErrorCode::kNotEmpty);
  ASSERT_OK(UnlinkAt(*fs.vfs, "/d/f"));
  ASSERT_OK(root->Rmdir("d"));
  EXPECT_EQ(ResolvePath(*fs.vfs, "/d").code(), ErrorCode::kNotFound);
}

TEST(EpisodeTest, HardLinksShareData) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/orig", "shared content", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef orig, ResolvePath(*fs.vfs, "/orig"));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK(root->Link("alias", *orig));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, orig->GetAttr());
  EXPECT_EQ(attr.nlink, 2u);
  ASSERT_OK_AND_ASSIGN(std::string via_alias, ReadFileAt(*fs.vfs, "/alias"));
  EXPECT_EQ(via_alias, "shared content");
  // Removing one name keeps the file alive.
  ASSERT_OK(UnlinkAt(*fs.vfs, "/orig"));
  ASSERT_OK_AND_ASSIGN(std::string still, ReadFileAt(*fs.vfs, "/alias"));
  EXPECT_EQ(still, "shared content");
}

TEST(EpisodeTest, SymlinkResolution) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/target", "pointed-at", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK(root->CreateSymlink("link", "/target", TestCred()).status());
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/link"));
  EXPECT_EQ(back, "pointed-at");
  ASSERT_OK_AND_ASSIGN(VnodeRef link, ResolveParent(*fs.vfs, "/link").value().first->Lookup("link"));
  ASSERT_OK_AND_ASSIGN(std::string target, link->ReadSymlink());
  EXPECT_EQ(target, "/target");
}

TEST(EpisodeTest, RenameWithinDirectory) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/old", "data", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK(fs.vfs->Rename(*root, "old", *root, "new"));
  EXPECT_EQ(ResolvePath(*fs.vfs, "/old").code(), ErrorCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/new"));
  EXPECT_EQ(back, "data");
}

TEST(EpisodeTest, RenameReplacesExistingFile) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/a", "AAA", TestCred()));
  ASSERT_OK(WriteFileAt(*fs.vfs, "/b", "BBB", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK(fs.vfs->Rename(*root, "a", *root, "b"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/b"));
  EXPECT_EQ(back, "AAA");
  EXPECT_EQ(ResolvePath(*fs.vfs, "/a").code(), ErrorCode::kNotFound);
}

TEST(EpisodeTest, RenameDirectoryAcrossParentsFixesDotDot) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/p1", 0755, TestCred()).status());
  ASSERT_OK(MkdirAt(*fs.vfs, "/p2", 0755, TestCred()).status());
  ASSERT_OK(MkdirAt(*fs.vfs, "/p1/child", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*fs.vfs, "/p1/child/f", "moved", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef p1, ResolvePath(*fs.vfs, "/p1"));
  ASSERT_OK_AND_ASSIGN(VnodeRef p2, ResolvePath(*fs.vfs, "/p2"));
  ASSERT_OK(fs.vfs->Rename(*p1, "child", *p2, "child"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/p2/child/../child/f"));
  EXPECT_EQ(back, "moved");
  ASSERT_OK_AND_ASSIGN(FileAttr a1, p1->GetAttr());
  ASSERT_OK_AND_ASSIGN(FileAttr a2, p2->GetAttr());
  EXPECT_EQ(a1.nlink, 2u);
  EXPECT_EQ(a2.nlink, 3u);
}

TEST(EpisodeTest, StaleFidAfterDeleteAndRecreate) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "v1", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef old, ResolvePath(*fs.vfs, "/f"));
  Fid old_fid = old->fid();
  ASSERT_OK(UnlinkAt(*fs.vfs, "/f"));
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "v2", TestCred()));
  // The old handle and old FID must be detected as stale.
  EXPECT_EQ(old->GetAttr().code(), ErrorCode::kStale);
  auto by_fid = fs.vfs->VnodeByFid(old_fid);
  EXPECT_EQ(by_fid.code(), ErrorCode::kStale);
}

TEST(EpisodeTest, VnodeByFidFindsLiveFile) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "findme", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*fs.vfs, "/f"));
  ASSERT_OK_AND_ASSIGN(VnodeRef again, fs.vfs->VnodeByFid(f->fid()));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, again->GetAttr());
  EXPECT_EQ(attr.size, 6u);
}

TEST(EpisodeTest, DataVersionBumpsOnEveryMutation) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "a", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*fs.vfs, "/f"));
  ASSERT_OK_AND_ASSIGN(FileAttr a1, f->GetAttr());
  ASSERT_OK(f->Write(0, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>("b"), 1))
                .status());
  ASSERT_OK_AND_ASSIGN(FileAttr a2, f->GetAttr());
  EXPECT_GT(a2.data_version, a1.data_version);
  AttrUpdate up;
  up.mode = 0600;
  ASSERT_OK(f->SetAttr(up));
  ASSERT_OK_AND_ASSIGN(FileAttr a3, f->GetAttr());
  EXPECT_GT(a3.data_version, a2.data_version);
  EXPECT_EQ(a3.mode, 0600u);
}

TEST(EpisodeTest, AclOnFileRoundTrips) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "acl me", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*fs.vfs, "/f"));
  ASSERT_OK_AND_ASSIGN(Acl empty, f->GetAcl());
  EXPECT_TRUE(empty.empty());
  Acl acl;
  acl.Add(AclEntry{AclEntry::Kind::kUser, 42, kRightRead | kRightWrite, 0});
  acl.Add(AclEntry{AclEntry::Kind::kOther, 0, kRightRead, 0});
  ASSERT_OK(f->SetAcl(acl));
  ASSERT_OK_AND_ASSIGN(Acl back, f->GetAcl());
  EXPECT_EQ(back, acl);
  // Replace it: DFS ACLs are not fixed-size (unlike AFS).
  Acl bigger;
  for (uint32_t i = 0; i < 200; ++i) {
    bigger.Add(AclEntry{AclEntry::Kind::kUser, i, kRightRead, 0});
  }
  ASSERT_OK(f->SetAcl(bigger));
  ASSERT_OK_AND_ASSIGN(Acl back2, f->GetAcl());
  EXPECT_EQ(back2, bigger);
}

TEST(EpisodeTest, AclOnDirectoryToo) {
  // AFS allowed ACLs only on directories; DEcorum on any file or directory.
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/d", 0755, TestCred()).status());
  ASSERT_OK_AND_ASSIGN(VnodeRef d, ResolvePath(*fs.vfs, "/d"));
  Acl acl;
  acl.Add(AclEntry{AclEntry::Kind::kGroup, 7, kRightLookup | kRightInsert, 0});
  ASSERT_OK(d->SetAcl(acl));
  ASSERT_OK_AND_ASSIGN(Acl back, d->GetAcl());
  EXPECT_EQ(back, acl);
}

TEST(EpisodeTest, ManyFilesInOneDirectory) {
  TestFs fs = TestFs::Create(16384);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(WriteFileAt(*fs.vfs, "/f" + std::to_string(i), std::to_string(i), TestCred()));
  }
  ASSERT_OK_AND_ASSIGN(VnodeRef root, fs.vfs->Root());
  ASSERT_OK_AND_ASSIGN(auto entries, root->ReadDir());
  EXPECT_EQ(entries.size(), 202u);
  ASSERT_OK_AND_ASSIGN(std::string f137, ReadFileAt(*fs.vfs, "/f137"));
  EXPECT_EQ(f137, "137");
}

TEST(EpisodeTest, NameTooLongRejected) {
  TestFs fs = TestFs::Create();
  std::string long_name(kMaxNameLen + 1, 'x');
  EXPECT_EQ(CreateFileAt(*fs.vfs, "/" + long_name, 0644, TestCred()).code(),
            ErrorCode::kNameTooLong);
}

TEST(EpisodeTest, DuplicateCreateRejected) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "x", TestCred()));
  EXPECT_EQ(CreateFileAt(*fs.vfs, "/f", 0644, TestCred()).code(), ErrorCode::kExists);
}

TEST(EpisodeTest, MultipleVolumesAreIndependent) {
  TestFs fs = TestFs::Create(16384);
  ASSERT_OK_AND_ASSIGN(uint64_t vol2, fs.agg->CreateVolume("second"));
  ASSERT_OK_AND_ASSIGN(VfsRef vfs2, fs.agg->MountVolume(vol2));
  ASSERT_OK(WriteFileAt(*fs.vfs, "/only-in-1", "one", TestCred()));
  ASSERT_OK(WriteFileAt(*vfs2, "/only-in-2", "two", TestCred()));
  EXPECT_EQ(ResolvePath(*vfs2, "/only-in-1").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResolvePath(*fs.vfs, "/only-in-2").code(), ErrorCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(auto vols, fs.agg->ListVolumes());
  EXPECT_EQ(vols.size(), 2u);
}

TEST(EpisodeTest, DeleteVolumeReclaimsSpace) {
  TestFs fs = TestFs::Create(16384);
  ASSERT_OK_AND_ASSIGN(uint64_t vol2, fs.agg->CreateVolume("doomed"));
  ASSERT_OK_AND_ASSIGN(VfsRef vfs2, fs.agg->MountVolume(vol2));
  std::vector<uint8_t> data(100 * 1024, 0x11);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*vfs2, "/big", 0644, TestCred()));
  ASSERT_OK(f->Write(0, data).status());
  f.reset();
  vfs2.reset();
  uint64_t free_before = fs.agg->FreeBlockCount();
  ASSERT_OK(fs.agg->DeleteVolume(vol2));
  uint64_t free_after = fs.agg->FreeBlockCount();
  EXPECT_GT(free_after, free_before + 20);
  EXPECT_EQ(fs.agg->MountVolume(vol2).code(), ErrorCode::kNotFound);
}

TEST(EpisodeTest, SalvagerCleanOnHealthyFilesystem) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(MkdirAt(*fs.vfs, "/d", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*fs.vfs, "/d/f", "healthy", TestCred()));
  ASSERT_OK(WriteFileAt(*fs.vfs, "/g", "also healthy", TestCred()));
  ASSERT_OK_AND_ASSIGN(auto report, fs.agg->Salvage(/*repair=*/false));
  EXPECT_TRUE(report.clean()) << "refcount_fixes=" << report.refcount_fixes
                              << " bad_pointers=" << report.bad_pointers
                              << " orphans=" << report.orphan_entries
                              << " nlink=" << report.nlink_fixes
                              << " leaked=" << report.leaked_blocks;
  EXPECT_EQ(report.volumes, 1u);
  EXPECT_GT(report.anodes, 0u);
}

TEST(EpisodeTest, BusyVolumeRejectsOperations) {
  TestFs fs = TestFs::Create();
  ASSERT_OK(WriteFileAt(*fs.vfs, "/f", "x", TestCred()));
  ASSERT_OK(fs.agg->SetVolumeBusy(fs.volume_id, true));
  EXPECT_EQ(ReadFileAt(*fs.vfs, "/f").code(), ErrorCode::kBusy);
  ASSERT_OK(fs.agg->SetVolumeBusy(fs.volume_id, false));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*fs.vfs, "/f"));
  EXPECT_EQ(back, "x");
}

}  // namespace
}  // namespace dfs
