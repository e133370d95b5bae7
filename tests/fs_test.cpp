// m3fs: image model and end-to-end service behaviour over the capability
// system (paper §2.2, §5.3.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "fs/fs_image.h"
#include "fs/service.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

// ---------------------------------------------------------------------------
// FsImage unit tests
// ---------------------------------------------------------------------------

TEST(FsImage, RootExists) {
  FsImage image;
  const Inode* root = image.Lookup("/");
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->is_dir);
}

TEST(FsImage, AddAndLookupFile) {
  FsImage image;
  image.AddDir("/a");
  image.AddFile("/a/f", 100);
  const Inode* inode = image.Lookup("/a/f");
  ASSERT_NE(inode, nullptr);
  EXPECT_FALSE(inode->is_dir);
  EXPECT_EQ(inode->size, 100u);
  EXPECT_EQ(image.Lookup("/a/missing"), nullptr);
}

TEST(FsImage, FilesGetDisjointExtentAlignedRegions) {
  FsImage image;
  image.AddFile("/f1", 300 * KiB);
  image.AddFile("/f2", 1500 * KiB);
  const Inode* f1 = image.Lookup("/f1");
  const Inode* f2 = image.Lookup("/f2");
  EXPECT_EQ(f1->reserved, kFsExtentBytes);
  EXPECT_EQ(f2->reserved, 2 * kFsExtentBytes);
  EXPECT_GE(f2->offset, f1->offset + f1->reserved);
}

TEST(FsImage, CountEntriesIsDirectChildrenOnly) {
  FsImage image;
  image.AddDir("/d");
  image.AddDir("/d/sub");
  image.AddFile("/d/a", 1);
  image.AddFile("/d/b", 1);
  image.AddFile("/d/sub/c", 1);
  EXPECT_EQ(image.CountEntries("/d"), 3u);  // a, b, sub
  EXPECT_EQ(image.CountEntries("/d/sub"), 1u);
}

TEST(FsImage, UnlinkRemovesFilesNotDirs) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/f", 10);
  EXPECT_TRUE(image.Unlink("/d/f"));
  EXPECT_EQ(image.Lookup("/d/f"), nullptr);
  EXPECT_FALSE(image.Unlink("/d/f"));  // already gone
  EXPECT_FALSE(image.Unlink("/d"));    // directories are not unlinkable
}

TEST(FsImage, GrowExtendsAndRelocates) {
  FsImage image;
  image.AddFile("/f", 10 * KiB);
  Inode* inode = image.LookupMutable("/f");
  uint64_t offset_before = inode->offset;
  image.Grow(inode, 100 * KiB);  // within the reserved extent
  EXPECT_EQ(inode->offset, offset_before);
  EXPECT_EQ(inode->size, 100 * KiB);
  image.Grow(inode, 3 * MiB);  // beyond: relocated to the log end
  EXPECT_EQ(inode->reserved, 3 * MiB);
  EXPECT_EQ(inode->size, 3 * MiB);
}

TEST(FsImage, CreateAfterUnlinkWorks) {
  FsImage image;
  image.AddFile("/f", 10);
  EXPECT_TRUE(image.Unlink("/f"));
  image.AddFile("/f", 20);
  EXPECT_EQ(image.Lookup("/f")->size, 20u);
}

TEST(FsImage, CopiesOfAFrozenImageDivergeIndependently) {
  FsImage tmpl;
  tmpl.AddDir("/d");
  tmpl.AddDir("/d/sub");
  tmpl.AddFile("/d/a", 10);
  tmpl.AddFile("/d/b", 20);
  tmpl.Freeze();
  FsImage x = tmpl;
  FsImage y = tmpl;
  ASSERT_EQ(tmpl.inode_count(), 5u);  // /, /d, /d/sub, /d/a, /d/b

  // Create: each copy numbers and places its new inodes like a deep copy.
  const Inode* xc = x.AddFile("/d/c", 5);
  const Inode* yz = y.AddFile("/d/sub/z", 5);
  EXPECT_EQ(xc->ino, yz->ino);
  EXPECT_EQ(xc->offset, yz->offset);
  EXPECT_EQ(y.Lookup("/d/c"), nullptr);
  EXPECT_EQ(tmpl.Lookup("/d/c"), nullptr);
  EXPECT_EQ(x.Lookup("/d/sub/z"), nullptr);

  // Grow promotes the base inode into y's overlay; x and the template keep
  // the original.
  Inode* ya = y.LookupMutable("/d/a");
  ASSERT_NE(ya, nullptr);
  y.Grow(ya, 3 * MiB);
  EXPECT_EQ(y.Lookup("/d/a"), ya);
  EXPECT_EQ(y.Lookup("/d/a")->size, 3 * MiB);
  EXPECT_EQ(x.Lookup("/d/a")->size, 10u);
  EXPECT_EQ(tmpl.Lookup("/d/a")->size, 10u);
  EXPECT_GT(y.bytes_used(), x.bytes_used());

  // Unlink of a base entry hides it in that copy only.
  EXPECT_TRUE(x.Unlink("/d/b"));
  EXPECT_EQ(x.Lookup("/d/b"), nullptr);
  EXPECT_FALSE(x.Unlink("/d/b"));
  EXPECT_NE(y.Lookup("/d/b"), nullptr);
  EXPECT_NE(tmpl.Lookup("/d/b"), nullptr);

  // Unlink of a promoted entry hides the base original too.
  EXPECT_TRUE(y.Unlink("/d/a"));
  EXPECT_EQ(y.Lookup("/d/a"), nullptr);
  EXPECT_EQ(y.LookupMutable("/d/a"), nullptr);
  EXPECT_NE(x.Lookup("/d/a"), nullptr);

  // Re-create after unlink: a fresh inode, the template's stays.
  const Inode* xb = x.AddFile("/d/b", 7);
  EXPECT_EQ(x.Lookup("/d/b"), xb);
  EXPECT_EQ(xb->size, 7u);
  EXPECT_NE(xb->ino, tmpl.Lookup("/d/b")->ino);
  EXPECT_EQ(tmpl.Lookup("/d/b")->size, 20u);

  // Directory listings and inode counts stay exact per copy.
  EXPECT_EQ(tmpl.CountEntries("/d"), 3u);  // sub, a, b
  EXPECT_EQ(x.CountEntries("/d"), 4u);     // sub, a, b (re-created), c
  EXPECT_EQ(y.CountEntries("/d"), 2u);     // sub, b
  EXPECT_EQ(y.CountEntries("/d/sub"), 1u);
  EXPECT_EQ(x.CountEntries("/d/sub"), 0u);
  EXPECT_EQ(x.CountEntries("/"), 1u);
  EXPECT_EQ(tmpl.inode_count(), 5u);
  EXPECT_EQ(x.inode_count(), 6u);
  EXPECT_EQ(y.inode_count(), 5u);

  // A copy of a copy, and a re-frozen copy, keep all of that.
  FsImage z = x;
  EXPECT_TRUE(z.Unlink("/d/c"));
  EXPECT_NE(x.Lookup("/d/c"), nullptr);
  EXPECT_EQ(z.CountEntries("/d"), 3u);
  x.Freeze();
  EXPECT_EQ(x.Lookup("/d/b")->size, 7u);
  EXPECT_EQ(x.CountEntries("/d"), 4u);
  EXPECT_EQ(x.inode_count(), 6u);
  EXPECT_EQ(z.Lookup("/d/c"), nullptr);
  EXPECT_EQ(y.Lookup("/d/a"), nullptr);
  EXPECT_EQ(tmpl.Lookup("/d/a")->size, 10u);
}

TEST(FsImage, RepeatedCreateUnlinkKeepsTheOverlayBounded) {
  // The open-loop postmark request shape: every request creates, writes and
  // unlinks the same delivery file, and other requests re-create files of
  // the frozen base.
  FsImage tmpl;
  PopulatePostmarkRequestImage(&tmpl, 4);
  tmpl.Freeze();
  FsImage image = tmpl;
  size_t warm = 0;  // after a few rounds: the erased entries' reuse has settled
  for (int i = 0; i < 10'000; ++i) {
    image.AddFile("/mbox/s1/tmp", 0);
    image.Grow(image.LookupMutable("/mbox/s1/tmp"), 4 * KiB);
    ASSERT_TRUE(image.Unlink("/mbox/s1/tmp"));
    ASSERT_TRUE(image.Unlink("/mbox/s2/cur"));
    image.AddFile("/mbox/s2/cur", 8 * KiB);
    if (i == 9) {
      warm = image.overlay_entries();
    }
  }
  EXPECT_EQ(image.overlay_entries(), warm);
  EXPECT_LE(warm, 4u);
  EXPECT_EQ(image.inode_count(), tmpl.inode_count());
  EXPECT_EQ(image.CountEntries("/mbox/s1"), 1u);
  EXPECT_EQ(image.CountEntries("/mbox/s2"), 1u);
}

// Random AddFile/AddDir/Unlink/LookupMutable/Grow over a frozen template and
// two copies, each checked against a std::map model whose directory
// listing is the plain prefix scan.
TEST(FsImage, ChurnMatchesAMapModel) {
  struct ModelInode {
    bool is_dir = false;
    uint64_t size = 0;
    uint64_t ino = 0;
  };
  struct Model {
    std::map<std::string, ModelInode> inodes;
    uint64_t next_ino = 1;
    std::map<std::string, Inode*> held;  // LookupMutable results to re-check
  };
  const std::vector<std::string> dirs = {"/", "/a", "/b", "/a/x", "/a/y", "/b/z", "/b/z/w"};
  std::vector<std::string> files;
  for (const std::string& dir : dirs) {
    for (int f = 0; f < 16; ++f) {
      files.push_back((dir == "/" ? "" : dir) + "/f" + std::to_string(f));
    }
  }
  std::vector<std::string> all_paths = dirs;
  all_paths.insert(all_paths.end(), files.begin(), files.end());
  auto parent_of = [](const std::string& path) {
    size_t pos = path.find_last_of('/');
    return pos == 0 ? std::string("/") : path.substr(0, pos);
  };
  auto listed = [](const Model& m, const std::string& dir) {
    std::string prefix = dir == "/" ? "/" : dir + "/";
    uint32_t n = 0;
    for (const auto& [path, inode] : m.inodes) {
      (void)inode;
      n += path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
           path.find('/', prefix.size()) == std::string::npos;
    }
    return n;
  };

  std::mt19937_64 rng(20240917);
  auto pick = [&rng](const std::vector<std::string>& v) -> const std::string& {
    return v[rng() % v.size()];
  };
  auto step = [&](FsImage& image, Model& m) {
    switch (rng() % 6) {
      case 0: {  // create a file
        const std::string& path = pick(files);
        if (m.inodes.count(path) == 0 && m.inodes.count(parent_of(path)) != 0) {
          ASSERT_EQ(image.Lookup(path), nullptr) << path;
          uint64_t size = rng() % (2 * MiB);
          const Inode* inode = image.AddFile(path, size);
          m.inodes[path] = ModelInode{false, size, m.next_ino++};
          ASSERT_EQ(image.Lookup(path), inode);
        }
        return;
      }
      case 1: {  // create a directory (a no-op if it exists)
        const std::string& path = pick(dirs);
        if (m.inodes.count(parent_of(path)) != 0 || path == "/") {
          image.AddDir(path);
          if (m.inodes.count(path) == 0) {
            m.inodes[path] = ModelInode{true, 0, m.next_ino++};
          }
        }
        return;
      }
      case 2:
      case 3: {  // unlink a file, or fail on a directory or a missing path
        const std::string& path = rng() % 4 == 0 ? pick(dirs) : pick(files);
        auto it = m.inodes.find(path);
        bool expect = it != m.inodes.end() && !it->second.is_dir;
        ASSERT_EQ(image.Unlink(path), expect) << path;
        if (expect) {
          m.inodes.erase(it);
          m.held.erase(path);
        }
        return;
      }
      default: {  // mutable lookup, then grow a file
        const std::string& path = pick(files);
        Inode* inode = image.LookupMutable(path);
        auto it = m.inodes.find(path);
        ASSERT_EQ(inode != nullptr, it != m.inodes.end()) << path;
        if (inode != nullptr) {
          uint64_t new_size = inode->size + rng() % (3 * MiB);
          image.Grow(inode, new_size);
          it->second.size = std::max(it->second.size, new_size);
          m.held[path] = inode;
        }
        return;
      }
    }
  };
  auto check = [&](FsImage& image, const Model& m) {
    ASSERT_EQ(image.inode_count(), m.inodes.size());
    for (const std::string& path : all_paths) {
      const Inode* inode = image.Lookup(path);
      auto it = m.inodes.find(path);
      ASSERT_EQ(inode != nullptr, it != m.inodes.end()) << path;
      if (inode != nullptr) {
        EXPECT_EQ(inode->is_dir, it->second.is_dir) << path;
        EXPECT_EQ(inode->size, it->second.size) << path;
        EXPECT_EQ(inode->ino, it->second.ino) << path;
      }
    }
    for (const std::string& dir : dirs) {
      EXPECT_EQ(image.CountEntries(dir), listed(m, dir)) << dir;
    }
    // Held pointers survive index growth and later promotions.
    for (const auto& [path, inode] : m.held) {
      ASSERT_EQ(image.LookupMutable(path), inode) << path;
    }
  };

  FsImage tmpl;
  Model tmpl_model;
  tmpl_model.inodes["/"] = ModelInode{true, 0, tmpl_model.next_ino++};
  for (int i = 0; i < 2'000; ++i) {
    step(tmpl, tmpl_model);
  }
  check(tmpl, tmpl_model);
  tmpl.Freeze();
  tmpl_model.held.clear();  // Freeze rebuilds the storage
  std::vector<FsImage> images = {tmpl, tmpl, tmpl};
  std::vector<Model> models = {tmpl_model, tmpl_model, tmpl_model};
  for (int i = 1; i <= 20'000; ++i) {
    size_t k = rng() % images.size();
    step(images[k], models[k]);
    if (HasFatalFailure()) {
      return;
    }
    if (i == 8'000) {
      images[2].Freeze();  // re-freeze a diverged copy
      models[2].held.clear();
    }
    if (i == 12'000) {
      images[0] = images[1];  // copy-assign over a diverged copy
      models[0] = models[1];
      models[0].held.clear();
    }
    if (i % 1'000 == 0) {
      for (size_t j = 0; j < images.size(); ++j) {
        check(images[j], models[j]);
      }
      if (HasFailure()) {
        return;
      }
    }
  }
  check(tmpl, tmpl_model);  // the template never saw the copies' churn
}

// ---------------------------------------------------------------------------
// End-to-end: a hand-written trace against a real service
// ---------------------------------------------------------------------------

struct E2eRig {
  std::unique_ptr<Platform> platform;
  FsService* service = nullptr;
  TraceReplayer* replayer = nullptr;
};

E2eRig MakeE2e(Trace trace, const FsImage& image, uint32_t kernels = 1) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.services = 1;
  pc.users = 1;
  E2eRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& p = *rig.platform;

  NodeId svc_node = p.service_nodes()[0];
  Kernel* svc_kernel = p.kernel_of(svc_node);
  CapSel mem_sel = svc_kernel->AdminGrantMem(svc_node, p.mem_nodes()[0], 0,
                                             image.bytes_used() + (64 * MiB), kPermRW);
  auto service = std::make_unique<FsService>("m3fs", image, p.kernel_node(svc_kernel->id()),
                                             pc.timing, mem_sel);
  rig.service = service.get();
  p.pe(svc_node)->AttachProgram(std::move(service));

  NodeId user_node = p.user_nodes()[0];
  NodeId ker_node = p.kernel_node(p.membership().KernelOf(user_node));
  auto replayer = std::make_unique<TraceReplayer>(std::move(trace), ker_node, pc.timing);
  rig.replayer = replayer.get();
  p.pe(user_node)->AttachProgram(std::move(replayer));

  p.Boot();
  return rig;
}

TEST(FsService, OpenReadCloseHandsAndRevokesOneExtent) {
  FsImage image;
  image.AddFile("/f", 100 * KiB);
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Open("/f", kOpenRead));
  trace.ops.push_back(TraceOp::Read("/f", 100 * KiB));
  trace.ops.push_back(TraceOp::Close("/f"));

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  const TraceReplayer::Result& result = rig.replayer->result();
  ASSERT_TRUE(result.done);
  // session(1) + open(1) + close revoke(1).
  EXPECT_EQ(result.cap_ops, 3u);
  EXPECT_EQ(rig.service->stats().opens, 1u);
  EXPECT_EQ(rig.service->stats().extents_handed, 1u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 1u);
}

TEST(FsService, CrossingExtentBoundaryObtainsAnotherCapability) {
  // "If the application exceeds this range ... it is provided with an
  // additional memory capability to the next range" (§5.3.1).
  FsImage image;
  image.AddFile("/big", 2048 * KiB);  // 2 extents at 1 MiB
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Open("/big", kOpenRead));
  trace.ops.push_back(TraceOp::Read("/big", 2048 * KiB));
  trace.ops.push_back(TraceOp::Close("/big"));

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  const TraceReplayer::Result& result = rig.replayer->result();
  ASSERT_TRUE(result.done);
  // session(1) + open(1) + next-extent(1) + 2 close revokes.
  EXPECT_EQ(result.cap_ops, 5u);
  EXPECT_EQ(rig.service->stats().extents_handed, 2u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 2u);
}

TEST(FsService, WritingGrowsAFreshFile) {
  FsImage image;
  image.AddDir("/out");
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Open("/out/new", kOpenWrite | kOpenCreate));
  trace.ops.push_back(TraceOp::Write("/out/new", 2500 * KiB));  // 3 extents
  trace.ops.push_back(TraceOp::Close("/out/new"));

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  EXPECT_EQ(rig.service->stats().extents_handed, 3u);
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u + 3u + 3u);
  EXPECT_NE(rig.service->image().Lookup("/out/new"), nullptr);
}

TEST(FsService, UnlinkWhileOpenRevokesImmediately) {
  // The SQLite journal pattern (§5.3.1).
  FsImage image;
  image.AddDir("/db");
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Open("/db/journal", kOpenWrite | kOpenCreate));
  trace.ops.push_back(TraceOp::Write("/db/journal", 8 * KiB));
  trace.ops.push_back(TraceOp::Unlink("/db/journal"));
  trace.ops.push_back(TraceOp::Close("/db/journal"));

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  // session(1) + open(1) + unlink revoke(1); the close revokes nothing.
  EXPECT_EQ(rig.replayer->result().cap_ops, 3u);
  EXPECT_EQ(rig.service->stats().caps_revoked, 1u);
  EXPECT_EQ(rig.service->image().Lookup("/db/journal"), nullptr);
}

TEST(FsService, MetaOperationsNeedNoCapabilities) {
  FsImage image;
  image.AddDir("/d");
  image.AddFile("/d/f", 10 * KiB);
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Stat("/d/f"));
  trace.ops.push_back(TraceOp::Stat("/d/missing"));
  trace.ops.push_back(TraceOp::Mkdir("/d/sub"));
  trace.ops.push_back(TraceOp::ReadDir("/d"));

  E2eRig rig = MakeE2e(trace, image);
  rig.platform->RunToCompletion();

  ASSERT_TRUE(rig.replayer->result().done);
  EXPECT_EQ(rig.replayer->result().cap_ops, 1u);  // only the session obtain
  EXPECT_EQ(rig.service->stats().metas, 4u);
  EXPECT_NE(rig.service->image().Lookup("/d/sub"), nullptr);
}

TEST(FsService, SpanningServiceAccessWorks) {
  // Client and service in different PE groups: every open/extent/close runs
  // the group-spanning protocol (Figure 3, sequence B).
  FsImage image;
  image.AddFile("/f", 64 * KiB);
  Trace trace;
  trace.app = "test";
  trace.ops.push_back(TraceOp::Open("/f", kOpenRead));
  trace.ops.push_back(TraceOp::Read("/f", 64 * KiB));
  trace.ops.push_back(TraceOp::Close("/f"));

  // 2 kernels: service lands in group 0, the user in group 1.
  PlatformConfig pc;
  pc.kernels = 2;
  pc.services = 1;
  pc.users = 2;
  Platform platform(pc);
  NodeId svc_node = platform.service_nodes()[0];
  Kernel* svc_kernel = platform.kernel_of(svc_node);
  CapSel mem_sel =
      svc_kernel->AdminGrantMem(svc_node, platform.mem_nodes()[0], 0, 64 * MiB, kPermRW);
  auto service = std::make_unique<FsService>("m3fs", image,
                                             platform.kernel_node(svc_kernel->id()), pc.timing,
                                             mem_sel);
  FsService* service_ptr = service.get();
  platform.pe(svc_node)->AttachProgram(std::move(service));

  // Pick the user NOT managed by the service's kernel.
  NodeId user_node = kInvalidNode;
  for (NodeId node : platform.user_nodes()) {
    if (platform.kernel_of(node) != svc_kernel) {
      user_node = node;
    }
  }
  ASSERT_NE(user_node, kInvalidNode);
  auto replayer = std::make_unique<TraceReplayer>(
      trace, platform.kernel_node(platform.membership().KernelOf(user_node)), pc.timing);
  TraceReplayer* replayer_ptr = replayer.get();
  platform.pe(user_node)->AttachProgram(std::move(replayer));

  platform.Boot();
  platform.RunToCompletion();

  ASSERT_TRUE(replayer_ptr->result().done);
  EXPECT_EQ(replayer_ptr->result().cap_ops, 3u);
  EXPECT_EQ(service_ptr->stats().caps_revoked, 1u);
  KernelStats stats = platform.TotalKernelStats();
  EXPECT_GT(stats.spanning_obtains, 0u);
  EXPECT_GT(stats.spanning_revokes, 0u);
}

}  // namespace
}  // namespace semperos
