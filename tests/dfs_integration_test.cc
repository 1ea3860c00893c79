// Full-stack integration tests: client cache manager <-> protocol exporter
// <-> token manager <-> Episode, over the RPC network (Figures 1 and 2,
// Sections 5 and 6).
#include <gtest/gtest.h>

#include <string>

#include "src/ffs/ffs.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// Creates (mode 0666, so any principal may write) and fills a shared file.
Status WriteShared(Vfs& vfs, const std::string& path, std::string_view contents,
                   const Cred& cred) {
  if (!ResolvePath(vfs, path).ok()) {
    RETURN_IF_ERROR(CreateFileAt(vfs, path, 0666, cred).status());
  }
  return WriteFileAt(vfs, path, contents, cred);
}

TEST(DfsIntegrationTest, MountCreateWriteRead) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/hello.txt", "over the wire", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/hello.txt"));
  EXPECT_EQ(back, "over the wire");
}

TEST(DfsIntegrationTest, TwoClientsSeeWritesImmediately) {
  // The single-system-semantics guarantee (Section 5.4): when one user
  // modifies a file, others see it as soon as the write call completes —
  // no close, no TTL.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  ASSERT_OK(WriteShared(*avfs, "/shared", "alice v1", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string b1, ReadFileAt(*bvfs, "/shared"));
  EXPECT_EQ(b1, "alice v1");

  // Bob writes (still open at Alice conceptually); Alice reads immediately.
  ASSERT_OK(WriteShared(*bvfs, "/shared", "bob v2", TestCred(101)));
  ASSERT_OK_AND_ASSIGN(std::string a2, ReadFileAt(*avfs, "/shared"));
  EXPECT_EQ(a2, "bob v2");
}

TEST(DfsIntegrationTest, CachedReadCostsNoRpc) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "cached content", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::vector<uint8_t> buf(14);
  ASSERT_OK(f->Read(0, buf).status());  // may fetch
  LinkStats before = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(f->Read(0, buf).status());
    ASSERT_OK(f->GetAttr().status());
  }
  LinkStats after = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  EXPECT_EQ(after.calls, before.calls) << "reads under tokens must be RPC-free";
  EXPECT_GT(client->stats().data_cache_hits, 49u);
}

TEST(DfsIntegrationTest, WritesStayLocalUntilRevoked) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::string data = "locally cached write";
  ASSERT_OK(f->Write(0, std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(data.data()), data.size()))
                .status());
  LinkStats before = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(f->Write(0, std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(data.data()), data.size()))
                  .status());
  }
  LinkStats after = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  EXPECT_EQ(after.calls, before.calls)
      << "writes under a write data token require no server notification";
  // The data reaches the server when another client reads (revocation).
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string seen, ReadFileAt(*rvfs, "/f"));
  EXPECT_EQ(seen, data);
  EXPECT_GT(writer->stats().revocation_stores, 0u);
}

TEST(DfsIntegrationTest, Section55LocalWriterRemoteWriter) {
  // The paper's worked example: a remote client holds a write data token;
  // a local process on the server writes the same file through the glue
  // layer, which revokes the client's token (pushing its dirty data back)
  // before the local write proceeds.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* remote = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, remote->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*rvfs, "/f", "0123456789", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/f"));

  // Remote client writes locally under its token.
  std::string remote_write = "REMOTE";
  ASSERT_OK(rf->Write(0, std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(remote_write.data()),
                             remote_write.size()))
                .status());
  EXPECT_EQ(remote->stats().revocation_stores, 0u);

  // Local user on the server node writes through the glue layer.
  Cred root_cred{0, {0}};
  ASSERT_OK_AND_ASSIGN(VfsRef local, rig->server->LocalMount(rig->volume_id, root_cred));
  ASSERT_OK_AND_ASSIGN(VnodeRef lf, ResolvePath(*local, "/f"));
  std::string local_write = "local!";
  ASSERT_OK(lf->Write(4, std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(local_write.data()),
                             local_write.size()))
                .status());
  // The remote client's dirty data was stored back first (Section 5.5).
  EXPECT_GT(remote->stats().revocation_stores, 0u);

  // Final content: remote write applied, then local write on top.
  ASSERT_OK_AND_ASSIGN(std::string final_remote, ReadFileAt(*rvfs, "/f"));
  EXPECT_EQ(final_remote, "REMOlocal!");
  ASSERT_OK_AND_ASSIGN(std::string final_local, ReadFileAt(*local, "/f"));
  EXPECT_EQ(final_local, final_remote);
}

TEST(DfsIntegrationTest, DirectoryOpsAndLookupCaching) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(MkdirAt(*vfs, "/dir", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/dir/a", "A", TestCred()));
  ASSERT_OK(WriteFileAt(*vfs, "/dir/b", "B", TestCred()));

  // Repeated resolution of the same path should hit the lookup cache.
  ASSERT_OK(ReadFileAt(*vfs, "/dir/a").status());
  uint64_t hits_before = client->stats().lookup_cache_hits;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(ResolvePath(*vfs, "/dir/a").status());
  }
  EXPECT_GT(client->stats().lookup_cache_hits, hits_before);

  ASSERT_OK_AND_ASSIGN(VnodeRef dir, ResolvePath(*vfs, "/dir"));
  ASSERT_OK_AND_ASSIGN(auto entries, dir->ReadDir());
  EXPECT_EQ(entries.size(), 4u);  // . .. a b
}

TEST(DfsIntegrationTest, LookupCacheInvalidatedByOtherClientsMutation) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  ASSERT_OK(WriteShared(*avfs, "/f", "v1", TestCred()));
  ASSERT_OK(ReadFileAt(*avfs, "/f").status());  // warm alice's dir cache

  // Bob replaces the file (unlink + create: new fid under the same name).
  ASSERT_OK(UnlinkAt(*bvfs, "/f"));
  ASSERT_OK(WriteShared(*bvfs, "/f", "v2", TestCred(101)));

  // Alice's cached lookup was invalidated by the token revocation on the
  // directory; she resolves the new file, not a stale fid.
  ASSERT_OK_AND_ASSIGN(std::string seen, ReadFileAt(*avfs, "/f"));
  EXPECT_EQ(seen, "v2");
}

TEST(DfsIntegrationTest, StaleFidSurfacesAsStale) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*avfs, "/f", "v1", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*avfs, "/f"));
  Fid stale = f->fid();
  ASSERT_OK(UnlinkAt(*bvfs, "/f"));
  ASSERT_OK_AND_ASSIGN(VnodeRef via_fid, avfs->VnodeByFid(stale));
  EXPECT_EQ(via_fid->GetAttr().code(), ErrorCode::kStale);
}

TEST(DfsIntegrationTest, AclEnforcedAtServer) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");  // uid 100
  CacheManager* bob = rig->NewClient("bob");      // uid 101
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  ASSERT_OK(WriteFileAt(*avfs, "/private", "alice only", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*avfs, "/private"));
  Acl acl;
  acl.Add(AclEntry{AclEntry::Kind::kUser, 100, kRightRead | kRightWrite | kRightControl, 0});
  ASSERT_OK(f->SetAcl(acl));

  // Bob cannot read or write.
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bvfs, "/private"));
  std::vector<uint8_t> buf(10);
  EXPECT_EQ(bf->Read(0, buf).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(WriteFileAt(*bvfs, "/private", "nope", TestCred(101)).code(),
            ErrorCode::kPermissionDenied);
  // Alice still can.
  ASSERT_OK_AND_ASSIGN(std::string mine, ReadFileAt(*avfs, "/private"));
  EXPECT_EQ(mine, "alice only");
}

TEST(DfsIntegrationTest, OpenTokenConflicts) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*avfs, "/prog", "binary", TestCred()));

  // Alice "executes" the file; Bob may read but not open-for-write (ETXTBSY).
  ASSERT_OK_AND_ASSIGN(OpenHandle exec, alice->Open(*avfs, "/prog", OpenMode::kExecute));
  ASSERT_OK(bob->Open(*bvfs, "/prog", OpenMode::kRead).status());
  EXPECT_EQ(bob->Open(*bvfs, "/prog", OpenMode::kWrite).code(), ErrorCode::kTextBusy);
  ASSERT_OK(exec.Close());
  // After close, the write open succeeds.
  ASSERT_OK(bob->Open(*bvfs, "/prog", OpenMode::kWrite).status());
}

TEST(DfsIntegrationTest, RemoveOfOpenFileIsTextBusy) {
  // Section 5.4: the exclusive-write open token lets the server check a file
  // about to be deleted has no remote users.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*avfs, "/busy", "in use", TestCred()));
  ASSERT_OK_AND_ASSIGN(OpenHandle h, alice->Open(*avfs, "/busy", OpenMode::kRead));
  EXPECT_EQ(UnlinkAt(*bvfs, "/busy").code(), ErrorCode::kTextBusy);
  ASSERT_OK(h.Close());
  ASSERT_OK(UnlinkAt(*bvfs, "/busy"));
}

TEST(DfsIntegrationTest, DisklessClientWorks) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options opts;
  opts.diskless = true;  // Section 4.2: in-memory data cache
  CacheManager* client = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/mem", "no disk here", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/mem"));
  EXPECT_EQ(back, "no disk here");
  // Caching still works: repeated reads are local.
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/mem"));
  std::vector<uint8_t> buf(12);
  ASSERT_OK(f->Read(0, buf).status());
  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_EQ(rig->net.StatsBetween(client->node(), kServerNode).calls, before.calls);
}

TEST(DfsIntegrationTest, ByteRangeTokensAllowDisjointWriters) {
  // Two clients write disjoint halves of one file; with byte-range data
  // tokens neither revokes the other (Section 5.4's large-file scenario).
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  // Pre-size the file to two blocks.
  ASSERT_OK(WriteShared(*avfs, "/big", std::string(2 * kBlockSize, '.'), TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*avfs, "/big"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bvfs, "/big"));

  std::string lo(kBlockSize, 'A');
  std::string hi(kBlockSize, 'B');
  ASSERT_OK(af->Write(0, std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(lo.data()), lo.size()))
                .status());
  ASSERT_OK(bf->Write(kBlockSize, std::span<const uint8_t>(
                                      reinterpret_cast<const uint8_t*>(hi.data()), hi.size()))
                .status());
  uint64_t alice_revocations = alice->stats().revocations_handled;
  // Repeated disjoint writes: no further token ping-pong.
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(af->Write(0, std::span<const uint8_t>(
                               reinterpret_cast<const uint8_t*>(lo.data()), lo.size()))
                  .status());
    ASSERT_OK(bf->Write(kBlockSize,
                        std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(hi.data()), hi.size()))
                  .status());
  }
  EXPECT_EQ(alice->stats().revocations_handled, alice_revocations)
      << "disjoint byte-range writers must not revoke each other";
  // Both halves visible to a third client.
  CacheManager* carol = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef cvfs, carol->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string all, ReadFileAt(*cvfs, "/big"));
  EXPECT_EQ(all.substr(0, 4), "AAAA");
  EXPECT_EQ(all.substr(kBlockSize, 4), "BBBB");
}

TEST(DfsIntegrationTest, FileLocksWithAndWithoutTokens) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*avfs, "/locked", "data", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*avfs, "/locked"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bvfs, "/locked"));

  // Alice locks [0,100) exclusively (no token: server-side lock).
  ASSERT_OK(alice->SetLock(af->fid(), ByteRange{0, 100}, true, 1));
  EXPECT_EQ(bob->SetLock(bf->fid(), ByteRange{50, 150}, true, 2).code(),
            ErrorCode::kWouldBlock);
  ASSERT_OK(bob->SetLock(bf->fid(), ByteRange{100, 200}, true, 2));
  ASSERT_OK(alice->ClearLock(af->fid(), ByteRange{0, 100}, 1));
  ASSERT_OK(bob->SetLock(bf->fid(), ByteRange{0, 50}, true, 2));
}

TEST(DfsIntegrationTest, RenameThroughClient) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(MkdirAt(*vfs, "/d1", 0755, TestCred()).status());
  ASSERT_OK(MkdirAt(*vfs, "/d2", 0755, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/d1/f", "moving", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef d1, ResolvePath(*vfs, "/d1"));
  ASSERT_OK_AND_ASSIGN(VnodeRef d2, ResolvePath(*vfs, "/d2"));
  ASSERT_OK(vfs->Rename(*d1, "f", *d2, "g"));
  EXPECT_EQ(ResolvePath(*vfs, "/d1/f").code(), ErrorCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/d2/g"));
  EXPECT_EQ(back, "moving");
}

TEST(DfsIntegrationTest, SymlinksThroughClient) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/target", "followed", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef root, vfs->Root());
  ASSERT_OK(root->CreateSymlink("link", "/target", TestCred()).status());
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/link"));
  EXPECT_EQ(back, "followed");
}

TEST(DfsIntegrationTest, FsyncPushesDirtyData) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::string data = "must reach the server";
  ASSERT_OK(f->Write(0, std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(data.data()), data.size()))
                .status());
  ASSERT_OK(client->Fsync(f->fid()));
  // Verify server-side via the glue layer without involving the client.
  Cred root_cred{0, {0}};
  ASSERT_OK_AND_ASSIGN(VfsRef local, rig->server->LocalMount(rig->volume_id, root_cred));
  ASSERT_OK_AND_ASSIGN(std::string server_view, ReadFileAt(*local, "/f"));
  EXPECT_EQ(server_view, data);
}

TEST(DfsIntegrationTest, ExportedFfsWorksThroughSameProtocol) {
  // Interoperability (Figure 1): the protocol exporter serves a conventional
  // FFS exactly as it serves Episode.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  auto ffs_disk = std::make_unique<SimDisk>(8192);
  FfsVfs::Options fopts;
  fopts.volume_id = 777;
  ASSERT_OK_AND_ASSIGN(auto ffs, FfsVfs::Format(*ffs_disk, fopts));
  ASSERT_OK(rig->server->ExportVolume(777, ffs));
  VldbClient registrar(rig->net, kServerNode, {kVldbNode});
  ASSERT_OK(registrar.Register(777, "legacy", kServerNode));

  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("legacy"));
  ASSERT_OK(WriteFileAt(*vfs, "/on-ffs", "exported legacy fs", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/on-ffs"));
  EXPECT_EQ(back, "exported legacy fs");
  // VFS+ extensions are partial: SetAcl reports kNotSupported end-to-end.
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/on-ffs"));
  Acl acl;
  acl.Add(AclEntry{AclEntry::Kind::kUser, 1, kRightRead, 0});
  EXPECT_EQ(f->SetAcl(acl).code(), ErrorCode::kNotSupported);
}

TEST(DfsIntegrationTest, UnauthenticatedClientRejected) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  // Forge a ticket with the wrong secret.
  Ticket forged;
  forged.principal = "alice";
  forged.uid = 0;
  forged.nonce = 1;
  forged.mac = 0xBAD;
  CacheManager::Options opts;
  opts.node = 199;
  CacheManager mallory(rig->net, {kVldbNode}, forged, opts);
  auto vfs = mallory.MountVolumeById(rig->volume_id);
  ASSERT_TRUE(vfs.ok());  // mounting is lazy
  auto root = (*vfs)->Root();
  EXPECT_EQ(root.code(), ErrorCode::kAuthFailed);
}

TEST(DfsIntegrationTest, ServerExportsMultipleAggregates) {
  // One file server, two physical disks (aggregates), volumes on each — the
  // Figure-1 server structure at full width.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  auto disk_b = std::make_unique<SimDisk>(8192);
  Aggregate::Options bopts;
  bopts.volume_id_base = 500;
  ASSERT_OK_AND_ASSIGN(auto agg_b, Aggregate::Format(*disk_b, bopts));
  ASSERT_OK_AND_ASSIGN(uint64_t vol_b, agg_b->CreateVolume("scratch"));
  ASSERT_OK(rig->server->ExportAggregate(agg_b.get()));
  VldbClient registrar(rig->net, kServerNode, {kVldbNode});
  ASSERT_OK(registrar.Register(vol_b, "scratch", kServerNode));

  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef home, client->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef scratch, client->MountVolume("scratch"));
  ASSERT_OK(WriteFileAt(*home, "/on-a", "aggregate A", TestCred()));
  ASSERT_OK(WriteFileAt(*scratch, "/on-b", "aggregate B", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string a, ReadFileAt(*home, "/on-a"));
  ASSERT_OK_AND_ASSIGN(std::string b, ReadFileAt(*scratch, "/on-b"));
  EXPECT_EQ(a, "aggregate A");
  EXPECT_EQ(b, "aggregate B");
  // Volume ids are globally unique across the aggregates (distinct bases).
  ASSERT_OK_AND_ASSIGN(VnodeRef fb, ResolvePath(*scratch, "/on-b"));
  EXPECT_EQ(fb->fid().volume, vol_b);
  ASSERT_OK(client->SyncAll());
  // Both aggregates salvage clean.
  ASSERT_OK_AND_ASSIGN(auto ra, rig->agg->Salvage(false));
  ASSERT_OK_AND_ASSIGN(auto rb, agg_b->Salvage(false));
  EXPECT_TRUE(ra.clean());
  EXPECT_TRUE(rb.clean());
}

}  // namespace
}  // namespace dfs
