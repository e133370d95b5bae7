// Distributed capability exchange and revocation (paper §4.3).
//
// Covers group-internal and group-spanning obtain/delegate/revoke plus the
// four interference anomalies of Table 2: Orphaned, Invalid, Incomplete,
// and Pointless.
#include <gtest/gtest.h>

#include <vector>

#include "core/kernel.h"
#include "tests/test_util.h"

namespace semperos {
namespace {

TEST(ChildList, KeepsInsertionOrderInlineAndSpilled) {
  auto key = [](uint64_t obj) { return DdlKey::Make(1, 1, CapType::kMem, obj); };
  ChildList list;
  EXPECT_TRUE(list.empty());
  list.push_back(key(1));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.Remove(key(2)));
  EXPECT_TRUE(list.Remove(key(1)));
  EXPECT_TRUE(list.empty());
  for (uint64_t obj = 1; obj <= 5; ++obj) {
    list.push_back(key(obj));  // spills on the second child
  }
  EXPECT_TRUE(list.Remove(key(3)));
  std::vector<DdlKey> order(list.begin(), list.end());
  EXPECT_EQ(order, (std::vector<DdlKey>{key(1), key(2), key(4), key(5)}));
  EXPECT_EQ(list.back(), key(5));
  for (uint64_t obj : {1, 2, 4, 5}) {
    EXPECT_TRUE(list.Remove(key(obj)));
  }
  EXPECT_TRUE(list.empty());
  list.push_back(key(9));
  EXPECT_EQ(list[0], key(9));
}

TEST(Obtain, GroupInternal) {
  ClientRig rig = MakeRig(1, 2);
  CapSel owner_sel = rig.Grant(1);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* child = kernel->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->type(), CapType::kMem);
  Capability* parent = kernel->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  EXPECT_EQ(parent->children()[0], child->key());
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(kernel->stats().obtains, 1u);
  EXPECT_EQ(kernel->stats().spanning_obtains, 0u);
}

TEST(Obtain, GroupSpanning) {
  ClientRig rig = MakeRig(2, 2);  // round-robin: client 0 -> K0, client 1 -> K1
  ASSERT_NE(rig.kernel_of_client(0), rig.kernel_of_client(1));
  CapSel owner_sel = rig.Grant(1);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);
  Capability* child = k0->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  Capability* parent = k1->CapOf(rig.vpe(1), owner_sel);
  ASSERT_NE(parent, nullptr);
  // The cross-kernel tree edge is expressed through DDL keys (Figure 2).
  ASSERT_EQ(parent->children().size(), 1u);
  EXPECT_EQ(parent->children()[0], child->key());
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(k0->stats().spanning_obtains, 1u);
  EXPECT_GT(k0->stats().ikc_sent, 0u);
}

TEST(Obtain, MissingCapabilityFails) {
  ClientRig rig = MakeRig(1, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), /*peer_sel=*/999,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

TEST(Obtain, SpanningMissingCapabilityFails) {
  ClientRig rig = MakeRig(2, 2);
  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), /*peer_sel=*/999,
                             [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

TEST(Delegate, GroupInternal) {
  ClientRig rig = MakeRig(1, 2);
  CapSel sel = rig.Grant(0);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* parent = kernel->CapOf(rig.vpe(0), sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  Capability* child = kernel->FindCap(parent->children()[0]);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->holder(), rig.vpe(1));
  EXPECT_EQ(kernel->stats().delegates, 1u);
}

TEST(Delegate, GroupSpanningTwoWayHandshake) {
  ClientRig rig = MakeRig(2, 2);
  CapSel sel = rig.Grant(0);
  SyscallReply got;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);
  Capability* parent = k0->CapOf(rig.vpe(0), sel);
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children().size(), 1u);
  Capability* child = k1->FindCap(parent->children()[0]);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->holder(), rig.vpe(1));
  EXPECT_EQ(child->parent(), parent->key());
  EXPECT_EQ(k0->stats().spanning_delegates, 1u);
  // Handshake: DelegateReq + DelegateAck from K0, reply + ack-reply from K1.
  EXPECT_GE(k0->stats().ikc_sent, 2u);
}

TEST(Revoke, GroupInternalRecursive) {
  ClientRig rig = MakeRig(1, 3);
  CapSel sel = rig.Grant(0);
  Kernel* kernel = rig.kernel_of_client(0);

  // Build: v0 -> v1 -> v2 by two delegates.
  bool step1 = false;
  rig.client(0).env().Delegate(sel, rig.vpe(1), [&](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    step1 = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(step1);
  Capability* root = kernel->CapOf(rig.vpe(0), sel);
  Capability* mid = kernel->FindCap(root->children()[0]);
  rig.client(1).env().Delegate(mid->sel(), rig.vpe(2), [](const SyscallReply&) {});
  rig.p().RunToCompletion();

  size_t caps_before = kernel->caps().size();
  SyscallReply got;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();

  EXPECT_EQ(got.err, ErrCode::kOk);
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), sel), nullptr);
  EXPECT_EQ(kernel->caps().size(), caps_before - 3);  // root + 2 descendants
  EXPECT_EQ(kernel->stats().caps_deleted, 3u);
}

TEST(Revoke, GroupSpanningRecursive) {
  // Chain A(K0) -> B(K1) -> C(K0): the deadlock example of §4.2 — K1 calls
  // back into K0 while K0's revoke is suspended.
  ClientRig rig = MakeRig(2, 4);
  size_t a = rig.client_in_kernel(0, 0);
  size_t b = rig.client_in_kernel(1, 0);
  size_t c = rig.client_in_kernel(0, 1);
  CapSel sel = rig.Grant(a);
  Kernel* k0 = rig.kernel_of_client(a);
  Kernel* k1 = rig.kernel_of_client(b);
  ASSERT_NE(k0, k1);

  rig.client(a).env().Delegate(sel, rig.vpe(b), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(a), sel);
  ASSERT_EQ(root->children().size(), 1u);
  Capability* mid = k1->FindCap(root->children()[0]);
  ASSERT_NE(mid, nullptr);
  rig.client(b).env().Delegate(mid->sel(), rig.vpe(c), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  // C really lives on K0 again: the cycle K0 -> K1 -> K0 exists.
  ASSERT_EQ(k0->FindCap(k1->FindCap(root->children()[0])->children()[0])->holder(), rig.vpe(c));
  // Snapshot the keys: the revocation below frees the Capability objects.
  DdlKey root_key = root->key();
  DdlKey mid_key = mid->key();

  bool acked = false;
  rig.client(a).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(acked);
  EXPECT_EQ(k0->CapOf(rig.vpe(a), sel), nullptr);
  EXPECT_EQ(k0->FindCap(root_key), nullptr);
  EXPECT_EQ(k1->FindCap(mid_key), nullptr);
  EXPECT_EQ(k0->stats().spanning_revokes + k1->stats().spanning_revokes, 2u);
}

TEST(Revoke, MissingCapabilityFails) {
  ClientRig rig = MakeRig(1, 1);
  SyscallReply got;
  rig.client(0).env().Revoke(12345, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoSuchCap);
}

// --- Table 2 anomalies ---

TEST(Anomaly, OrphanedObtainCleanedUp) {
  // "the obtainer could be killed while waiting for the inter-kernel call.
  // This leaves an orphaned child capability in the owner's capability
  // tree" (§4.3.2) — cleaned up through the orphan notification. The kill
  // is swept across the whole window of the spanning obtain; for every
  // interleaving the owner's tree must end up clean, and at least one
  // interleaving must hit the orphan-notification path.
  uint64_t total_orphans_cleaned = 0;
  for (Cycles kill_at = 0; kill_at <= 12'000; kill_at += 1'000) {
    ClientRig rig = MakeRig(2, 2);
    CapSel owner_sel = rig.Grant(1);
    Kernel* k0 = rig.kernel_of_client(0);
    Kernel* k1 = rig.kernel_of_client(1);

    rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [](const SyscallReply&) {});
    bool killed = false;
    rig.p().sim().Schedule(kill_at, [&] { k0->AdminKillVpe(rig.vpe(0), [&] { killed = true; }); });
    rig.p().RunToCompletion();

    EXPECT_TRUE(killed) << "kill_at=" << kill_at;
    Capability* owner_cap = k1->CapOf(rig.vpe(1), owner_sel);
    ASSERT_NE(owner_cap, nullptr);
    EXPECT_TRUE(owner_cap->children().empty())
        << "orphaned child survived, kill_at=" << kill_at;
    total_orphans_cleaned += k0->stats().orphans_cleaned + k1->stats().orphans_cleaned;
  }
  EXPECT_GE(total_orphans_cleaned, 1u) << "no interleaving exercised the orphan path";
}

TEST(Anomaly, InvalidDelegatePrevented) {
  // "although all capabilities of the delegator are revoked, the delegated
  // capability stays valid at the receiving VPE" — prevented by the two-way
  // handshake (§4.3.2). We kill the delegator mid-delegate; whatever the
  // interleaving, the receiver must never end up with a capability whose
  // parent edge is untracked.
  ClientRig rig = MakeRig(2, 2);
  CapSel sel = rig.Grant(0);
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);

  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply&) {});
  bool killed = false;
  k0->AdminKillVpe(rig.vpe(0), [&] { killed = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(killed);

  // The delegator's capabilities are gone.
  EXPECT_EQ(k0->CapOf(rig.vpe(0), sel), nullptr);
  // The receiver may only hold the child if it is still tracked — i.e. if
  // it were inserted, the kill's recursive revoke must have removed it.
  const VpeState* receiver = k1->FindVpe(rig.vpe(1));
  ASSERT_NE(receiver, nullptr);
  receiver->table.ForEach([&](CapSel rsel, DdlKey key) {
    Capability* cap = k1->FindCap(key);
    ASSERT_NE(cap, nullptr);
    EXPECT_NE(cap->type(), CapType::kMem)
        << "receiver holds a delegated capability that outlived the delegator";
    (void)rsel;
  });
}

TEST(Anomaly, IncompleteRevokeNeverAcked) {
  // Overlapping revokes on an overlapping subtree: the inner revoke must
  // not be acknowledged before the whole chain below it is gone (§4.3.1).
  ClientRig rig = MakeRig(2, 4);
  size_t a = rig.client_in_kernel(0, 0);
  size_t b = rig.client_in_kernel(1, 0);
  size_t c = rig.client_in_kernel(0, 1);
  CapSel sel = rig.Grant(a);
  Kernel* k0 = rig.kernel_of_client(a);
  Kernel* k1 = rig.kernel_of_client(b);

  // Chain: A(K0) -> B(K1) -> C(K0).
  rig.client(a).env().Delegate(sel, rig.vpe(b), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(a), sel);
  Capability* mid = k1->FindCap(root->children()[0]);
  CapSel mid_sel = mid->sel();
  rig.client(b).env().Delegate(mid_sel, rig.vpe(c), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  DdlKey mid_key = mid->key();
  DdlKey leaf_key = k1->FindCap(mid_key)->children()[0];

  // Both revokes race: A revokes the root, B revokes the middle.
  bool outer_done = false;
  bool inner_done = false;
  rig.client(a).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    outer_done = true;
    // When the initiator is acked, the entire subtree must be gone.
    EXPECT_EQ(k1->FindCap(mid_key), nullptr);
    EXPECT_EQ(k0->FindCap(leaf_key), nullptr);
  });
  rig.client(b).env().Revoke(mid_sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    inner_done = true;
    // "completed revokes are indeed completed": the subtree below the
    // middle capability must be gone when this ack arrives.
    EXPECT_EQ(k1->FindCap(mid_key), nullptr);
    EXPECT_EQ(k0->FindCap(leaf_key), nullptr);
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(outer_done);
  EXPECT_TRUE(inner_done);
}

TEST(Anomaly, PointlessExchangeDenied) {
  // "the two phases allow us to immediately deny exchanges of capabilities
  // that are in revocation" (§4.3.3).
  ClientRig rig = MakeRig(2, 4);
  CapSel sel = rig.Grant(0);
  Kernel* k0 = rig.kernel_of_client(0);

  // Long spanning chain under the root capability keeps the revoke running.
  size_t ping = rig.client_in_kernel(1, 0);
  size_t pong = rig.client_in_kernel(0, 1);
  size_t prober = rig.client_in_kernel(1, 1);
  rig.client(0).env().Delegate(sel, rig.vpe(ping), [](const SyscallReply&) {});
  rig.p().RunToCompletion();
  Capability* root = k0->CapOf(rig.vpe(0), sel);
  Capability* cur = rig.kernel_of_client(ping)->FindCap(root->children()[0]);
  size_t from = ping;
  for (int hop = 0; hop < 6; ++hop) {
    size_t to = (from == ping) ? pong : ping;
    CapSel cur_sel = cur->sel();
    rig.client(from).env().Delegate(cur_sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    Capability* prev = rig.kernel_of_client(from)->FindCap(cur->key());
    ASSERT_NE(prev, nullptr);
    ASSERT_EQ(prev->children().size(), 1u);
    cur = rig.kernel_of_client(to)->FindCap(prev->children()[0]);
    ASSERT_NE(cur, nullptr);
    from = to;
  }

  // Start the revoke, then try to obtain the root while it is marked.
  SyscallReply revoke_reply;
  bool revoked = false;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) {
    revoke_reply = r;
    revoked = true;
  });
  SyscallReply obtain_reply;
  obtain_reply.err = ErrCode::kAborted;  // sentinel
  rig.p().sim().Schedule(2000, [&] {
    rig.client(prober).env().Obtain(rig.vpe(0), sel,
                                    [&](const SyscallReply& r) { obtain_reply = r; });
  });
  rig.p().RunToCompletion();

  EXPECT_TRUE(revoked);
  EXPECT_EQ(revoke_reply.err, ErrCode::kOk);
  // Either the exchange was denied because the capability was marked, or —
  // if the revoke finished first — the capability is simply gone.
  EXPECT_TRUE(obtain_reply.err == ErrCode::kCapRevoked ||
              obtain_reply.err == ErrCode::kNoSuchCap)
      << "got: " << ErrName(obtain_reply.err);
  EXPECT_GT(rig.p().TotalKernelStats().pointless_denials + 0u, 0u);
}

TEST(Revoke, PingPongChainNoDeadlock) {
  // Two malicious applications exchanging a capability back and forth
  // build a deep hierarchy at alternating kernels (§4.3.3). Revocation must
  // complete with the two-revocation-thread bound.
  ClientRig rig = MakeRig(2, 2);
  CapSel sel = rig.Grant(0);
  Kernel* k0 = rig.kernel_of_client(0);

  Capability* cur = k0->CapOf(rig.vpe(0), sel);
  size_t from = 0;
  for (int hop = 0; hop < 20; ++hop) {
    size_t to = 1 - from;
    CapSel cur_sel = cur->sel();
    rig.client(from).env().Delegate(cur_sel, rig.vpe(to), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
    rig.p().RunToCompletion();
    Capability* prev = rig.kernel_of_client(from)->FindCap(cur->key());
    ASSERT_NE(prev, nullptr);
    cur = rig.kernel_of_client(to)->FindCap(prev->children().back());
    ASSERT_NE(cur, nullptr);
    from = to;
  }

  size_t total_before = k0->caps().size() + rig.kernel_of_client(1)->caps().size();
  bool acked = false;
  rig.client(0).env().Revoke(sel, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    acked = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(acked) << "revocation of the ping-pong chain never completed";
  size_t total_after = k0->caps().size() + rig.kernel_of_client(1)->caps().size();
  EXPECT_EQ(total_before - total_after, 21u);  // root + 20 chain links
}

TEST(Threads, PoolBoundRespected) {
  // Eq. 1 sizing is enforced with a CHECK inside the kernel; surviving a
  // burst of concurrent syscalls from every VPE proves the accounting.
  ClientRig rig = MakeRig(2, 8);
  for (size_t i = 0; i < 8; ++i) {
    CapSel sel = rig.Grant(i);
    size_t peer = (i + 1) % 8;
    rig.client(i).env().Delegate(sel, rig.vpe(peer), [](const SyscallReply& r) {
      ASSERT_EQ(r.err, ErrCode::kOk);
    });
  }
  rig.p().RunToCompletion();
  for (KernelId k = 0; k < 2; ++k) {
    const KernelStats& stats = rig.p().kernel(k)->stats();
    EXPECT_GT(stats.threads_in_use_max, 0u);
    EXPECT_LE(stats.threads_in_use_max, rig.p().kernel(k)->ThreadPoolSize());
    EXPECT_EQ(stats.threads_in_use, 0u);  // all released
  }
}

TEST(KillVpe, RevokesEverythingIncludingRemoteChildren) {
  ClientRig rig = MakeRig(2, 4);
  size_t victim = rig.client_in_kernel(0, 0);
  size_t local_peer = rig.client_in_kernel(0, 1);
  size_t remote_peer = rig.client_in_kernel(1, 0);
  CapSel sel_a = rig.Grant(victim);
  CapSel sel_b = rig.Grant(victim);
  Kernel* k0 = rig.kernel_of_client(victim);
  Kernel* k1 = rig.kernel_of_client(remote_peer);

  rig.client(victim).env().Delegate(sel_a, rig.vpe(local_peer), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  rig.client(victim).env().Delegate(sel_b, rig.vpe(remote_peer), [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  size_t k1_caps_before = k1->caps().size();
  size_t local_peer_caps = k0->FindVpe(rig.vpe(local_peer))->table.size();
  ASSERT_EQ(local_peer_caps, 2u);  // VPE cap + delegated child

  bool killed = false;
  k0->AdminKillVpe(rig.vpe(victim), [&] { killed = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(killed);

  const VpeState* dead = k0->FindVpe(rig.vpe(victim));
  ASSERT_NE(dead, nullptr);
  EXPECT_FALSE(dead->alive);
  EXPECT_EQ(dead->table.size(), 0u);
  // The delegated children are revoked recursively on both kernels.
  EXPECT_EQ(k0->FindVpe(rig.vpe(local_peer))->table.size(), 1u);  // VPE cap only
  EXPECT_EQ(k1->caps().size(), k1_caps_before - 1);
}

TEST(Activate, BindsMemoryEndpointAndRevokeInvalidates) {
  ClientRig rig = MakeRig(1, 2);
  CapSel owner_sel = rig.Grant(1, 1 << 20);
  Kernel* kernel = rig.kernel_of_client(0);

  SyscallReply got;
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);

  bool activated = false;
  rig.client(0).env().Activate(got.sel, user_ep::kMem0, [&](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
    activated = true;
  });
  rig.p().RunToCompletion();
  ASSERT_TRUE(activated);
  EXPECT_TRUE(rig.p().pe(rig.vpe(0))->dtu().EpValid(user_ep::kMem0));

  // The holder can now access memory without any kernel involvement.
  bool read_done = false;
  rig.client(0).env().ReadMem(user_ep::kMem0, 0, 4096, [&] { read_done = true; });
  rig.p().RunToCompletion();
  EXPECT_TRUE(read_done);

  // Revoking the owner's capability invalidates the obtained copy's EP:
  // NoC-level enforcement (paper §2.1/§2.2).
  rig.client(1).env().Revoke(owner_sel, [](const SyscallReply& r) {
    ASSERT_EQ(r.err, ErrCode::kOk);
  });
  rig.p().RunToCompletion();
  EXPECT_FALSE(rig.p().pe(rig.vpe(0))->dtu().EpValid(user_ep::kMem0));
  EXPECT_EQ(kernel->CapOf(rig.vpe(0), got.sel), nullptr);
}

TEST(DeriveMem, CreatesRestrictedChild) {
  ClientRig rig = MakeRig(1, 1);
  CapSel sel = rig.Grant(0, 1 << 20);
  SyscallReply got;
  rig.client(0).env().DeriveMem(sel, 4096, 8192, kPermR, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  ASSERT_EQ(got.err, ErrCode::kOk);
  Kernel* kernel = rig.kernel_of_client(0);
  Capability* child = kernel->CapOf(rig.vpe(0), got.sel);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->payload().mem_base, 4096u);
  EXPECT_EQ(child->payload().mem_size, 8192u);
  EXPECT_EQ(child->payload().perms, kPermR);
  Capability* parent = kernel->CapOf(rig.vpe(0), sel);
  ASSERT_EQ(parent->children().size(), 1u);
}

TEST(DeriveMem, RejectsEscalation) {
  ClientRig rig = MakeRig(1, 1);
  CapSel sel = rig.kernel_of_client(0)->AdminGrantMem(rig.vpe(0), rig.p().mem_nodes()[0], 0, 4096,
                                                      kPermR);
  SyscallReply got;
  rig.client(0).env().DeriveMem(sel, 0, 4096, kPermRW, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);

  rig.client(0).env().DeriveMem(sel, 2048, 4096, kPermR, [&](const SyscallReply& r) { got = r; });
  rig.p().RunToCompletion();
  EXPECT_EQ(got.err, ErrCode::kNoPerm);  // out of the parent's range
}

TEST(Noop, RoundTripCompletes) {
  ClientRig rig = MakeRig(1, 1);
  bool done = false;
  auto msg = std::make_shared<SyscallMsg>();
  msg->op = SyscallOp::kNoop;
  rig.client(0).env().Syscall(msg, [&](const SyscallReply& r) {
    EXPECT_EQ(r.err, ErrCode::kOk);
    done = true;
  });
  rig.p().RunToCompletion();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace semperos
