// Revocation under capability-IKC batching (paper §5.2: revocation "can be
// further improved by the use of message batching").
//
// Revocation fan-out sends one REVOKE_REQ per remote child; unless
// batch_max_ops = 1, kCapBatch containers coalesce them per peer kernel.
// Every batch size must keep Algorithm 1's completeness — same final state,
// acks only after full deletion — and differ only in message count and
// latency.
#include <gtest/gtest.h>

#include <functional>

#include "system/client.h"

namespace semperos {
namespace {

DriverRig RevokeRig(uint32_t kernels, uint32_t users, uint32_t batch_max_ops) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = users;
  pc.batch_max_ops = batch_max_ops;
  return MakeDriverRig(pc);
}

class CapBatchingRevoke : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CapBatchingRevoke, TreeRevokeDeletesEverything) {
  DriverRig rig = RevokeRig(5, 17, GetParam());
  CapSel root = rig.BuildTree(16);
  size_t before = 0;
  for (KernelId k = 0; k < 5; ++k) {
    before += rig.p().kernel(k)->caps().size();
  }
  bool acked = false;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked);
  size_t after = 0;
  for (KernelId k = 0; k < 5; ++k) {
    after += rig.p().kernel(k)->caps().size();
    EXPECT_EQ(rig.p().kernel(k)->PendingOps(), 0u);
  }
  EXPECT_EQ(before - after, 17u);  // root + 16 children
  EXPECT_EQ(rig.p().TotalDrops(), 0u);
}

TEST_P(CapBatchingRevoke, ChainRevokeStillWorks) {
  DriverRig rig = RevokeRig(2, 2, GetParam());
  CapSel root = rig.BuildChain(12, {0, 1});
  bool acked = false;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked);
}

INSTANTIATE_TEST_SUITE_P(BatchMaxOps, CapBatchingRevoke, ::testing::Values(1u, 8u),
                         ::testing::PrintToStringParamName());

TEST(CapBatchingRevokeBehaviour, FewerMessagesThanPerChild) {
  uint64_t ikc_plain = 0;
  uint64_t ikc_batched = 0;
  for (uint32_t batch_max_ops : {1u, 8u}) {
    DriverRig rig = RevokeRig(5, 33, batch_max_ops);
    CapSel root = rig.BuildTree(32);
    uint64_t before = rig.p().TotalKernelStats().ikc_sent;
    rig.client(0).env().Revoke(root, [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    uint64_t sent = rig.p().TotalKernelStats().ikc_sent - before;
    (batch_max_ops > 1 ? ikc_batched : ikc_plain) = sent;
  }
  // 32 children over 4 remote kernels: 32 requests unbatched vs ~4
  // containers batched.
  EXPECT_LT(ikc_batched * 4, ikc_plain);
}

TEST(CapBatchingRevokeBehaviour, BatchedRevokeIsFasterOnWideTrees) {
  auto measure = [](uint32_t batch_max_ops) {
    DriverRig rig = RevokeRig(13, 97, batch_max_ops);
    CapSel root = rig.BuildTree(96);
    return rig.TimedOp([&](std::function<void()> done) {
      rig.client(0).env().Revoke(root, [done](const SyscallReply& r) {
        ASSERT_EQ(r.err, ErrCode::kOk);
        done();
      });
    });
  };
  Cycles plain = measure(1);
  Cycles batched = measure(8);
  EXPECT_LT(batched, plain);
}

TEST(CapBatchingRevokeBehaviour, OverlappingRevokesStayComplete) {
  // The "Incomplete" guarantee must survive batching: concurrent revokes on
  // overlapping subtrees both ack only after full deletion.
  DriverRig rig = RevokeRig(3, 9, 8);
  CapSel root = rig.Grant(0);
  // root -> a (K1), a -> b (K2).
  size_t a = 3;  // some client on another kernel
  while (rig.kernel_of_client(a) == rig.kernel_of_client(0)) {
    ++a;
  }
  rig.client(0).env().Delegate(root, rig.vpe(a), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Kernel* ka = rig.kernel_of_client(a);
  CapSel a_sel = ka->FindVpe(rig.vpe(a))->table.LastSel();
  size_t b = a + 1;
  while (b < 9 && (rig.kernel_of_client(b) == rig.kernel_of_client(a) ||
                   rig.kernel_of_client(b) == rig.kernel_of_client(0))) {
    ++b;
  }
  ASSERT_LT(b, 9u);
  rig.client(a).env().Delegate(a_sel, rig.vpe(b), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();

  int acks = 0;
  rig.client(0).env().Revoke(root, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks++;
  });
  rig.client(a).env().Revoke(a_sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acks++;
    // Completed means complete: nothing of a's subtree remains anywhere.
    EXPECT_EQ(rig.kernel_of_client(a)->CapOf(rig.vpe(a), a_sel), nullptr);
  });
  rig.p().RunToCompletion();
  EXPECT_EQ(acks, 2);
}

}  // namespace
}  // namespace semperos
