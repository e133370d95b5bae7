// Capability-IKC batching, pipelined ancestry walks, and the remote-DDL
// cache (docs/architecture.md §9).
//
// Batching may only change message counts and latency, never the
// *capability forest*. The equivalence tests here run one scenario at
// batch_max_ops 1 (unbatched) and 8 (the default) and require bit-identical
// DumpCaps() output on every kernel; the mixed-epoch test pins the
// settle-round rule that forwarding applies per sub-request, never to a
// whole container.
// Revocation under batching is covered by tests/batching_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "system/client.h"

namespace semperos {
namespace {

// End state + chatter counters of one scenario run.
struct Outcome {
  std::vector<std::string> dumps;  // DumpCaps() per kernel
  KernelStats stats;
  size_t pending = 0;
  uint64_t drops = 0;
};

Outcome Snapshot(DriverRig& rig, uint32_t kernels) {
  Outcome out;
  for (KernelId k = 0; k < kernels; ++k) {
    out.dumps.push_back(rig.p().kernel(k)->DumpCaps());
    out.pending += rig.p().kernel(k)->PendingOps();
  }
  out.stats = rig.p().TotalKernelStats();
  out.drops = rig.p().TotalDrops();
  return out;
}

// Four clients of kernel 1 obtain the same kernel-0 capability almost
// simultaneously: batched, their OBTAIN_REQs (and the acks flowing back)
// coalesce into kCapBatch containers; at batch_max_ops 1, each rides its
// own message. Requests are staggered by 50 cycles — well inside the widened
// flush window — so the container deterministically carries several ops.
Outcome RunConcurrentObtains(uint32_t batch_max_ops) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 8;
  pc.batch_max_ops = batch_max_ops;
  pc.batch_window = 2'000;
  DriverRig rig = MakeDriverRig(pc);

  CapSel root = rig.Grant(0);
  std::vector<size_t> remote;
  for (size_t i = 0; i < rig.clients.size(); ++i) {
    if (rig.kernel_of_client(i) != rig.kernel_of_client(0)) {
      remote.push_back(i);
    }
  }
  CHECK_GE(remote.size(), 4u);

  int ok = 0;
  VpeId owner = rig.vpe(0);
  Cycles t0 = rig.p().sim().Now();
  for (size_t j = 0; j < 4; ++j) {
    size_t who = remote[j];
    rig.p().sim().ScheduleAt(t0 + 1'000 + static_cast<Cycles>(j) * 50, [&rig, &ok, who, owner,
                                                                        root] {
      rig.client(who).env().Obtain(owner, root, [&ok](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk) << "obtain failed: " << ErrName(r.err);
        ok++;
      });
    });
  }
  rig.p().RunToCompletion();
  CHECK(ok == 4) << "only " << ok << " obtains completed";
  return Snapshot(rig, pc.kernels);
}

TEST(CapBatchingEquivalence, ConcurrentObtainsSameEndState) {
  Outcome off = RunConcurrentObtains(1);
  Outcome on = RunConcurrentObtains(8);

  ASSERT_EQ(off.dumps.size(), on.dumps.size());
  for (size_t k = 0; k < off.dumps.size(); ++k) {
    EXPECT_EQ(off.dumps[k], on.dumps[k]) << "kernel " << k << " forest diverged";
  }
  EXPECT_EQ(off.pending, 0u);
  EXPECT_EQ(on.pending, 0u);
  EXPECT_EQ(off.drops, 0u);
  EXPECT_EQ(on.drops, 0u);

  // The whole point: fewer wire messages for the same work.
  EXPECT_LT(on.stats.ikc_sent, off.stats.ikc_sent);
  EXPECT_GE(on.stats.ikc_batches_sent, 1u);
  EXPECT_GE(on.stats.ikc_batched_ops, 2u);
  EXPECT_EQ(off.stats.ikc_batches_sent, 0u);
  EXPECT_EQ(off.stats.ikc_batched_ops, 0u);
}

// A cross-kernel tree whose owner migrates mid-workload while other clients
// keep obtaining from the moving root (the settle-round scenario of
// tests/migration_test.cpp), then a full revocation. Both batch sizes must
// converge to the same forest, and both relay the stale-epoch obtains as
// pipelined walks.
Outcome RunMigrationStorm(uint32_t batch_max_ops) {
  PlatformConfig pc;
  pc.kernels = 3;
  pc.users = 6;
  pc.batch_max_ops = batch_max_ops;
  DriverRig rig = MakeDriverRig(pc);

  // Client indices per kernel (groups are laid out contiguously).
  auto client_in_kernel = [&rig](KernelId k, size_t j) {
    size_t seen = 0;
    for (size_t i = 0; i < rig.clients.size(); ++i) {
      if (rig.p().membership().KernelOf(rig.vpe(i)) == k) {
        if (seen == j) {
          return i;
        }
        ++seen;
      }
    }
    CHECK(false) << "kernel " << k << " has no client #" << j;
    return size_t{0};
  };
  size_t c0 = client_in_kernel(0, 0);
  size_t c1 = client_in_kernel(1, 0);
  size_t c2 = client_in_kernel(2, 0);
  VpeId mover = rig.vpe(c0);
  CapSel root = rig.Grant(c0);

  // Root at kernel 0 with children in kernels 1 and 2.
  for (size_t receiver : {c1, c2}) {
    bool delegated = false;
    rig.client(c0).env().Delegate(root, rig.vpe(receiver), [&delegated](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      delegated = true;
    });
    rig.p().RunToCompletion();
    CHECK(delegated);
  }

  // Migrate the owner to kernel 2 while obtains race the handoff.
  bool migrated = false;
  int obtains_ok = 0;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 4'000, [&rig, &migrated, mover] {
    rig.p().MigratePe(mover, 2, [&migrated](ErrCode err) {
      CHECK(err == ErrCode::kOk) << "migration failed: " << ErrName(err);
      migrated = true;
    });
  });
  size_t obtainers[] = {c1, c2, client_in_kernel(1, 1)};
  Cycles offsets[] = {2'000, 4'500, 9'000};
  for (int i = 0; i < 3; ++i) {
    size_t who = obtainers[i];
    rig.p().sim().ScheduleAt(t0 + offsets[i], [&rig, &obtains_ok, who, mover, root] {
      rig.client(who).env().Obtain(mover, root, [&obtains_ok](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk) << "obtain failed: " << ErrName(r.err);
        obtains_ok++;
      });
    });
  }
  rig.p().RunToCompletion();
  CHECK(migrated);
  CHECK(obtains_ok == 3) << "only " << obtains_ok << " obtains completed";

  // Tear the whole tree down from the moved VPE.
  bool revoked = false;
  rig.client(c0).env().Revoke(root, [&revoked](const SyscallReply& r) {
    CHECK(r.err == ErrCode::kOk);
    revoked = true;
  });
  rig.p().RunToCompletion();
  CHECK(revoked);
  return Snapshot(rig, pc.kernels);
}

TEST(CapBatchingEquivalence, MigrationStormSameEndState) {
  Outcome off = RunMigrationStorm(1);
  Outcome on = RunMigrationStorm(8);

  ASSERT_EQ(off.dumps.size(), on.dumps.size());
  for (size_t k = 0; k < off.dumps.size(); ++k) {
    EXPECT_EQ(off.dumps[k], on.dumps[k]) << "kernel " << k << " forest diverged";
  }
  EXPECT_EQ(off.pending, 0u);
  EXPECT_EQ(on.pending, 0u);
  EXPECT_EQ(off.drops, 0u);
  EXPECT_EQ(on.drops, 0u);

  // Relays and the remote-DDL cache do not depend on the batch size: both
  // arms relay the stale-epoch obtains and probe the cache.
  EXPECT_GE(off.stats.ikc_forwarded, 1u);
  EXPECT_GE(on.stats.ikc_forwarded, 1u);
  EXPECT_GE(off.stats.ikc_relays_pipelined, 1u);
  EXPECT_GE(on.stats.ikc_relays_pipelined, 1u);
  EXPECT_GE(off.stats.ddl_cache_misses, 1u);
  EXPECT_GE(on.stats.ddl_cache_misses, 1u);
}

// Regression: a container assembled across an epoch bump. Kernel 0 opens a
// batch towards kernel 2 (one obtain, huge flush window), a migration from
// kernel 1 to kernel 2 bumps the membership epoch while the batch is still
// open, then a second obtain joins the same container under the new epoch.
// The receiver must spot the straddle and settle each sub-request against
// its own epoch stamp — batching per-batch instead would either forward the
// fresh op spuriously or skip the settle round for the stale one.
TEST(CapBatching, MixedEpochBatchIsRoutedPerOp) {
  PlatformConfig pc;
  pc.kernels = 3;
  pc.users = 6;
  // Keep the kernel-0 -> kernel-2 batch open across the whole migration.
  pc.batch_window = 200'000;
  DriverRig rig = MakeDriverRig(pc);

  auto client_in_kernel = [&rig](KernelId k, size_t j) {
    size_t seen = 0;
    for (size_t i = 0; i < rig.clients.size(); ++i) {
      if (rig.p().membership().KernelOf(rig.vpe(i)) == k) {
        if (seen == j) {
          return i;
        }
        ++seen;
      }
    }
    CHECK(false) << "kernel " << k << " has no client #" << j;
    return size_t{0};
  };
  size_t ka0 = client_in_kernel(0, 0);  // first obtainer (epoch 0 stamp)
  size_t ka1 = client_in_kernel(0, 1);  // second obtainer (epoch 1 stamp)
  size_t kb0 = client_in_kernel(1, 0);  // the PE that migrates
  size_t kc0 = client_in_kernel(2, 0);  // owns the target capability

  VpeId owner = rig.vpe(kc0);
  CapSel root = rig.Grant(kc0);
  ASSERT_EQ(rig.p().membership().KernelOf(owner), 2u);

  int obtains_ok = 0;
  bool migrated = false;
  Cycles t0 = rig.p().sim().Now();
  // t+1k: first obtain opens the K0->K2 batch, stamped with epoch 0.
  rig.p().sim().ScheduleAt(t0 + 1'000, [&rig, &obtains_ok, ka0, owner, root] {
    rig.client(ka0).env().Obtain(owner, root, [&obtains_ok](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      obtains_ok++;
    });
  });
  // t+20k: an unrelated PE migrates K1->K2; the resulting EPOCH_UPDATE is
  // non-batchable, so it lands at kernel 0 while its batch stays open.
  VpeId mover = rig.vpe(kb0);
  rig.p().sim().ScheduleAt(t0 + 20'000, [&rig, &migrated, mover] {
    rig.p().MigratePe(mover, 2, [&migrated](ErrCode err) {
      EXPECT_EQ(err, ErrCode::kOk);
      migrated = true;
    });
  });
  // t+100k: second obtain joins the same container, stamped with epoch 1.
  rig.p().sim().ScheduleAt(t0 + 100'000, [&rig, &obtains_ok, ka1, owner, root] {
    rig.client(ka1).env().Obtain(owner, root, [&obtains_ok](const SyscallReply& r) {
      EXPECT_EQ(r.err, ErrCode::kOk);
      obtains_ok++;
    });
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(migrated);
  EXPECT_EQ(obtains_ok, 2);
  KernelStats stats = rig.p().TotalKernelStats();
  // The container really did straddle the epoch bump...
  EXPECT_GE(stats.ikc_batch_mixed_epoch, 1u);
  EXPECT_GE(stats.epoch_updates, 1u);
  // ...and both sub-requests still reached the owner: the obtained copies
  // exist, nothing is wedged, nothing was forwarded to a wrong kernel.
  Capability* owner_root = rig.p().kernel(2)->CapOf(owner, root);
  ASSERT_NE(owner_root, nullptr);
  EXPECT_EQ(owner_root->children().size(), 2u);
  for (KernelId k = 0; k < 3; ++k) {
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u) << "kernel " << k;
  }
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

}  // namespace
}  // namespace semperos
