// The four interference anomalies of paper Table 2, demonstrated live.
//
// Concurrent capability-modifying operations in a multikernel can interfere;
// the paper classifies the outcomes as Serialized (fine), Orphaned, Invalid,
// Incomplete, and Pointless — and designs the exchange/revocation protocols
// so the dangerous ones cannot happen. This example provokes each case and
// shows the mitigation working.
//
// Build & run:   cmake --build build && ./build/examples/anomalies
#include <cstdio>

#include "system/client.h"

using namespace semperos;

namespace {

void Banner(const char* name, const char* quote) {
  std::printf("\n--- %s ---\n\"%s\"\n", name, quote);
}

// ORPHANED: an obtainer dies while its spanning obtain is in flight; the
// owner's tree briefly holds a child entry that nobody can use.
void Orphaned() {
  Banner("Orphaned (obtain x kill)",
         "This leaves an orphaned child capability in the owner's capability tree. ... we let "
         "K1 send a notification to K2 ... in case V1 was killed. (paper 4.3.2)");
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel owner_sel = rig.Grant(1);
  rig.client(0).env().Obtain(rig.vpe(1), owner_sel, [](const SyscallReply&) {});
  // Kill the obtainer while the inter-kernel call is on the wire.
  rig.p().sim().Schedule(4000, [&] {
    rig.kernel_of_client(0)->AdminKillVpe(rig.vpe(0), nullptr);
  });
  rig.p().RunToCompletion();
  Capability* owner_cap = rig.kernel_of_client(1)->CapOf(rig.vpe(1), owner_sel);
  KernelStats stats = rig.p().TotalKernelStats();
  std::printf("owner's child entries after the dust settled: %zu (orphans cleaned: %llu)\n",
              owner_cap->children().size(), (unsigned long long)stats.orphans_cleaned);
}

// INVALID: a delegator dies mid-delegation; without the two-way handshake
// the receiver would keep a capability no tree tracks.
void Invalid() {
  Banner("Invalid (delegate x kill)",
         "although all capabilities of the delegator are revoked, the delegated capability "
         "stays valid at the receiving VPE ... we implement delegation with a two-way "
         "handshake. (paper 4.3.2)");
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel sel = rig.Grant(0);
  rig.client(0).env().Delegate(sel, rig.vpe(1), [](const SyscallReply&) {});
  rig.p().sim().Schedule(4000, [&] {
    rig.kernel_of_client(0)->AdminKillVpe(rig.vpe(0), nullptr);
  });
  rig.p().RunToCompletion();
  const VpeState* receiver = rig.kernel_of_client(1)->FindVpe(rig.vpe(1));
  size_t mem_caps = 0;
  receiver->table.ForEach([&](CapSel, const Capability* cap) {
    if (cap->type() == CapType::kMem) {
      mem_caps++;
    }
  });
  std::printf("receiver's untracked memory capabilities after the delegator died: %zu\n",
              mem_caps);
}

// INCOMPLETE: two revokes race on an overlapping chain; a naive depth-first
// delete would acknowledge the inner one before the subtree is gone.
void Incomplete() {
  Banner("Incomplete (revoke x revoke)",
         "Since applications have to rely on the semantic that completed revokes are indeed "
         "completed, we consider this behavior unacceptable. (paper 4.3.1)");
  // Two users on two kernels: the chain ping-pongs between the groups, so
  // both revocations must coordinate across the kernel boundary.
  DriverRig rig = MakeDriverRig(2, 2);
  CapSel root = rig.BuildChain(8, {0, 1});
  Kernel* k0 = rig.kernel_of_client(0);
  Kernel* k1 = rig.kernel_of_client(1);
  Capability* root_cap = k0->CapOf(rig.vpe(0), root);
  Capability* mid = k1->FindCap(root_cap->children()[0]);
  CapSel mid_sel = mid->sel();
  DdlKey mid_key = mid->key();

  bool inner_acked_complete = false;
  rig.client(0).env().Revoke(root, [](const SyscallReply&) {});
  rig.client(1).env().Revoke(mid_sel, [&](const SyscallReply& r) {
    // Whether this revoke ran itself (kOk) or piggybacked on the
    // overlapping one, at acknowledgement time the capability and its
    // entire subtree must be gone on both kernels.
    inner_acked_complete = (r.err == ErrCode::kOk || r.err == ErrCode::kNoSuchCap) &&
                           k1->FindCap(mid_key) == nullptr;
  });
  rig.p().RunToCompletion();
  std::printf("inner revoke acknowledged only after full deletion: %s\n",
              inner_acked_complete ? "yes" : "NO (bug!)");
}

// POINTLESS: exchanging a capability that is already being revoked.
void Pointless() {
  Banner("Pointless (revoke x exchange)",
         "the two phases allow us to immediately deny exchanges of capabilities that are in "
         "revocation. (paper 4.3.3)");
  DriverRig rig = MakeDriverRig(2, 4);
  CapSel root = rig.BuildChain(10, {1, 2});
  rig.client(0).env().Revoke(root, [](const SyscallReply&) {});
  SyscallReply got;
  got.err = ErrCode::kAborted;
  rig.p().sim().Schedule(2'000, [&] {
    rig.client(3).env().Obtain(rig.vpe(0), root, [&](const SyscallReply& r) { got = r; });
  });
  rig.p().RunToCompletion();
  std::printf("exchange during revocation answered with: %s (denials: %llu)\n", ErrName(got.err),
              (unsigned long long)rig.p().TotalKernelStats().pointless_denials);
}

}  // namespace

int main() {
  std::printf("Interference between capability-modifying operations (paper Table 2)\n");
  std::printf("====================================================================\n");
  Orphaned();
  Invalid();
  Incomplete();
  Pointless();
  std::printf("\nAll four anomalies provoked; all four mitigations held.\n");
  return 0;
}
