// Capabilities and the mapping database (paper §3.4, §4.3).
//
// A capability references a kernel object, a holder VPE, and other
// capabilities: a parent and a list of children. SemperOS keeps this sharing
// information in a tree used for recursive revocation; tree edges may span
// kernels, in which case they are DDL keys pointing into another kernel's
// capability space (paper Figure 2).
#ifndef SEMPEROS_CORE_CAPABILITY_H_
#define SEMPEROS_CORE_CAPABILITY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/log.h"
#include "base/pool_alloc.h"
#include "base/types.h"
#include "core/ddl.h"
#include "core/protocol.h"

namespace semperos {

struct RevokeTask;

// A capability's child edges, in insertion order (revocation walks them in
// that order). Almost every capability has zero or one child — an extent
// handed to one client, a session — so the first child lives inline and a
// list spills to a vector only on its second child. A spilled list keeps its
// vector (and capacity) for good, so add/remove churn on a widely shared
// capability (a service's root memory) allocates nothing either.
class ChildList {
 public:
  const DdlKey* begin() const { return spill_.capacity() != 0 ? spill_.data() : &first_; }
  const DdlKey* end() const { return begin() + size(); }
  size_t size() const { return spill_.capacity() != 0 ? spill_.size() : inline_size_; }
  bool empty() const { return size() == 0; }
  DdlKey operator[](size_t i) const { return begin()[i]; }
  DdlKey back() const {
    CHECK(!empty());
    return end()[-1];
  }

  void push_back(DdlKey child) {
    if (spill_.capacity() != 0) {
      spill_.push_back(child);
    } else if (inline_size_ == 0) {
      first_ = child;
      inline_size_ = 1;
    } else {
      spill_.reserve(4);
      spill_.push_back(first_);
      spill_.push_back(child);
    }
  }

  // Removes the first occurrence of `child`, keeping the others in order.
  bool Remove(DdlKey child) {
    if (spill_.capacity() != 0) {
      for (auto it = spill_.begin(); it != spill_.end(); ++it) {
        if (*it == child) {
          spill_.erase(it);
          return true;
        }
      }
      return false;
    }
    if (inline_size_ != 0 && first_ == child) {
      inline_size_ = 0;
      return true;
    }
    return false;
  }

 private:
  DdlKey first_;
  uint32_t inline_size_ = 0;  // 0 or 1 while nothing spilled
  std::vector<DdlKey> spill_;
};

class Capability {
 public:
  Capability(DdlKey key, CapType type, VpeId holder, CapSel sel)
      : key_(key), type_(type), holder_(holder), sel_(sel) {}

  DdlKey key() const { return key_; }
  CapType type() const { return type_; }
  VpeId holder() const { return holder_; }
  CapSel sel() const { return sel_; }

  DdlKey parent() const { return parent_; }
  void set_parent(DdlKey parent) { parent_ = parent; }

  const ChildList& children() const { return children_; }
  void AddChild(DdlKey child) { children_.push_back(child); }
  bool RemoveChild(DdlKey child) { return children_.Remove(child); }

  // Resource description (what a child capability would inherit).
  CapPayload& payload() { return payload_; }
  const CapPayload& payload() const { return payload_; }

  // --- Revocation state (two-phase mark-and-sweep, paper §4.3.3) ---
  bool marked() const { return task_ != nullptr; }
  RevokeTask* task() const { return task_; }
  void Mark(RevokeTask* task) {
    CHECK(task_ == nullptr);
    task_ = task;
  }

  // DTU endpoint this capability was activated on (invalidated on revoke).
  bool activated() const { return activated_; }
  EpId activated_ep() const { return activated_ep_; }
  void SetActivated(EpId ep) {
    activated_ = true;
    activated_ep_ = ep;
  }

 private:
  DdlKey key_;
  CapType type_;
  VpeId holder_;
  CapSel sel_;
  DdlKey parent_;
  ChildList children_;
  CapPayload payload_;
  RevokeTask* task_ = nullptr;
  bool activated_ = false;
  EpId activated_ep_ = 0;
};

// Selector -> capability key. Selectors are allocated sequentially per VPE
// (VpeState::AllocSel), so the table is a dense vector indexed by selector —
// a capability lookup is one bounds check and one load, where the previous
// std::map paid a pointer chase per tree level on every syscall. Empty slots
// (never used, or revoked) hold the null DdlKey.
class CapTable {
 public:
  // Key at `sel`, or the null key if the slot is empty/out of range.
  DdlKey Find(CapSel sel) const { return sel < slots_.size() ? slots_[sel] : DdlKey(); }

  void Set(CapSel sel, DdlKey key) {
    CHECK(!key.IsNull());
    if (sel >= slots_.size()) {
      // Selectors arrive sequentially; grow geometrically (resize alone
      // reallocates to the exact size, which would be quadratic here).
      if (static_cast<size_t>(sel) >= slots_.capacity()) {
        slots_.reserve(std::max({size_t{8}, 2 * slots_.capacity(),
                                 static_cast<size_t>(sel) + 1}));
      }
      slots_.resize(static_cast<size_t>(sel) + 1);
    }
    if (slots_[sel].IsNull()) {
      ++live_;
    }
    slots_[sel] = key;
  }

  void Erase(CapSel sel) {
    if (sel < slots_.size() && !slots_[sel].IsNull()) {
      slots_[sel] = DdlKey();
      --live_;
    }
  }

  // Number of live (non-null) entries.
  uint32_t size() const { return live_; }

  // Highest live selector, or kInvalidSel if the table is empty.
  CapSel LastSel() const {
    for (size_t i = slots_.size(); i > 0; --i) {
      if (!slots_[i - 1].IsNull()) {
        return static_cast<CapSel>(i - 1);
      }
    }
    return kInvalidSel;
  }

  // Invokes fn(sel, key) for every live entry, in ascending selector order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (CapSel sel = 0; sel < slots_.size(); ++sel) {
      if (!slots_[sel].IsNull()) {
        fn(sel, slots_[sel]);
      }
    }
  }

  // True if fn(sel, key) returns true for any live entry; stops at the
  // first hit (migration quiesce polls this repeatedly on large tables).
  template <typename Fn>
  bool Any(Fn&& fn) const {
    for (CapSel sel = 0; sel < slots_.size(); ++sel) {
      if (!slots_[sel].IsNull() && fn(sel, slots_[sel])) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<DdlKey> slots_;
  uint32_t live_ = 0;
};

// Kernel-side state of one VPE ("comparable to a single-threaded process",
// paper §2.2). One VPE per user PE; the VPE id is the PE's NodeId.
struct VpeState {
  VpeId id = kInvalidVpe;
  NodeId node = kInvalidNode;
  bool alive = true;
  bool is_service = false;
  // Frozen for migration: syscalls and exchanges touching this VPE are
  // denied with kVpeMigrating (retryable) until the handoff completes.
  bool migrating = false;
  CapSel next_sel = 1;
  // The capabilities themselves live in the kernel's CapSpace so they can
  // also be found by DDL key.
  CapTable table;

  CapSel AllocSel() { return next_sel++; }
};

// VPE id -> kernel-side VPE state. VPE ids are PE NodeIds, so the table is
// a dense pointer vector: the lookup every syscall dispatch performs is one
// load instead of a red-black-tree walk. Iteration (ForEach) runs in
// ascending id order, matching the std::map this replaces.
class VpeTable {
 public:
  VpeState* Find(VpeId id) {
    return id < slots_.size() ? slots_[id].get() : nullptr;
  }
  const VpeState* Find(VpeId id) const {
    return id < slots_.size() ? slots_[id].get() : nullptr;
  }

  VpeState& At(VpeId id) {
    VpeState* vpe = Find(id);
    CHECK(vpe != nullptr) << "unknown VPE " << id;
    return *vpe;
  }
  const VpeState& At(VpeId id) const {
    const VpeState* vpe = Find(id);
    CHECK(vpe != nullptr) << "unknown VPE " << id;
    return *vpe;
  }

  // Returns nullptr if `id` is already present (mirrors map::emplace).
  VpeState* Insert(VpeState&& vpe) {
    VpeId id = vpe.id;
    if (id >= slots_.size()) {
      slots_.resize(static_cast<size_t>(id) + 1);
    }
    if (slots_[id] != nullptr) {
      return nullptr;
    }
    slots_[id] = std::make_unique<VpeState>(std::move(vpe));
    ++live_;
    return slots_[id].get();
  }

  void Erase(VpeId id) {
    CHECK(id < slots_.size() && slots_[id] != nullptr);
    slots_[id].reset();
    --live_;
  }

  uint32_t size() const { return live_; }

  // Invokes fn(const VpeState&) for every live VPE in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot != nullptr) {
        fn(static_cast<const VpeState&>(*slot));
      }
    }
  }

 private:
  std::vector<std::unique_ptr<VpeState>> slots_;
  uint32_t live_ = 0;
};

// Per-kernel capability storage, indexed by DDL key. Capabilities live by
// value in pooled hash nodes: a node never moves, so a Capability* stays
// valid until the capability is erased.
class CapSpace {
 public:
  using Map = PooledHashMap<DdlKey, Capability>;

  Capability* Create(DdlKey key, CapType type, VpeId holder, CapSel sel) {
    auto [it, inserted] = caps_.try_emplace(key, key, type, holder, sel);
    CHECK(inserted) << "duplicate DDL key";
    return &it->second;
  }

  Capability* Find(DdlKey key) const {
    auto it = caps_.find(key);
    return it == caps_.end() ? nullptr : const_cast<Capability*>(&it->second);
  }

  void Erase(DdlKey key) {
    size_t n = caps_.erase(key);
    CHECK_EQ(n, size_t{1});
  }

  size_t size() const { return caps_.size(); }

  const Map& all() const { return caps_; }

 private:
  Map caps_;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_CAPABILITY_H_
