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

// Selector -> capability. Selectors are allocated sequentially per VPE
// (VpeState::AllocSel) and never reused, so the table is a dense vector
// indexed by selector, and a lookup is one bounds check and one load. A
// slot holds only the pointer (the key is cap->key()): long-lived VPEs keep
// every selector they ever used. Empty slots (never used, or revoked) are
// null. The pointee is owned by the kernel's CapSpace; whoever erases a
// capability there also clears its holder's slot, or drops the holder.
class CapTable {
 public:
  // Capability at `sel`, or nullptr if the slot is empty/out of range.
  Capability* Find(CapSel sel) const { return sel < slots_.size() ? slots_[sel] : nullptr; }

  void Set(CapSel sel, Capability* cap) {
    CHECK(cap != nullptr);
    if (sel >= slots_.size()) {
      // Selectors arrive sequentially; grow geometrically (resize alone
      // reallocates to the exact size, which would be quadratic here).
      if (static_cast<size_t>(sel) >= slots_.capacity()) {
        slots_.reserve(std::max({size_t{8}, 2 * slots_.capacity(),
                                 static_cast<size_t>(sel) + 1}));
      }
      slots_.resize(static_cast<size_t>(sel) + 1, nullptr);
    }
    if (slots_[sel] == nullptr) {
      ++live_;
    }
    slots_[sel] = cap;
  }

  void Erase(CapSel sel) {
    if (sel < slots_.size() && slots_[sel] != nullptr) {
      slots_[sel] = nullptr;
      --live_;
    }
  }

  // Number of live (non-null) entries.
  uint32_t size() const { return live_; }

  // Highest live selector, or kInvalidSel if the table is empty.
  CapSel LastSel() const {
    for (size_t i = slots_.size(); i > 0; --i) {
      if (slots_[i - 1] != nullptr) {
        return static_cast<CapSel>(i - 1);
      }
    }
    return kInvalidSel;
  }

  // Invokes fn(sel, cap) for every live entry, in ascending selector order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (CapSel sel = 0; sel < slots_.size(); ++sel) {
      if (slots_[sel] != nullptr) {
        fn(sel, slots_[sel]);
      }
    }
  }

  // True if fn(sel, cap) returns true for any live entry; stops at the
  // first hit (migration quiesce polls this repeatedly on large tables).
  template <typename Fn>
  bool Any(Fn&& fn) const {
    for (CapSel sel = 0; sel < slots_.size(); ++sel) {
      if (slots_[sel] != nullptr && fn(sel, slots_[sel])) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<Capability*> slots_;
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
  // also be found by DDL key; the table points into it.
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

// Per-kernel capability storage, indexed by DDL key: one flat
// open-addressing table of (raw key, Capability*) slots. The key's fields
// cannot give a dense index (the object id is a kernel-wide counter), so
// the table hashes the raw key multiplicatively into a power-of-two slot
// array kept at most half full, probes linearly, and deletes by backward
// shift, which leaves no tombstones: a lookup is one multiply, one shift
// and (almost always) one or two adjacent slot loads.
//
// Each Capability lives in its own PoolAllocator block and never moves
// until Erase, so a Capability* (held by CapTable slots, revocation
// walks, ...) stays valid across table growth. With
// -DSEMPEROS_DISABLE_POOLS=ON the blocks are plain heap objects, so ASan
// reports any stale pointer left behind.
class CapSpace {
 public:
  CapSpace() : slots_(kMinSlots), shift_(64 - kMinSlotsLog2) {}
  ~CapSpace() {
    for (const Slot& slot : slots_) {
      if (slot.cap != nullptr) {
        PoolDelete<Capability>()(slot.cap);
      }
    }
  }
  CapSpace(const CapSpace&) = delete;
  CapSpace& operator=(const CapSpace&) = delete;

  Capability* Create(DdlKey key, CapType type, VpeId holder, CapSel sel) {
    CHECK(!key.IsNull()) << "null DDL key";
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    size_t i = Probe(key.raw());
    CHECK(slots_[i].cap == nullptr) << "duplicate DDL key " << key.raw();
    Capability* cap = PoolNew<Capability>(key, type, holder, sel).release();
    slots_[i] = Slot{key.raw(), cap};
    ++size_;
    return cap;
  }

  Capability* Find(DdlKey key) const { return slots_[Probe(key.raw())].cap; }

  void Erase(DdlKey key) {
    size_t hole = Probe(key.raw());
    CHECK(slots_[hole].cap != nullptr) << "erase of unknown DDL key " << key.raw();
    PoolDelete<Capability>()(slots_[hole].cap);
    --size_;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless that would move it before its home slot.
    size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].cap != nullptr; j = (j + 1) & mask) {
      size_t home = Home(slots_[j].raw);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  size_t size() const { return size_; }

  // Invokes fn(Capability*) for every capability, in unspecified order:
  // callers whose results must not depend on the table's layout sort.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.cap != nullptr) {
        fn(slot.cap);
      }
    }
  }

 private:
  struct Slot {
    uint64_t raw = 0;  // DdlKey::raw(); 0 (the null key) marks an empty slot
    Capability* cap = nullptr;
  };
  static constexpr int kMinSlotsLog2 = 4;
  static constexpr size_t kMinSlots = size_t{1} << kMinSlotsLog2;

  // Fibonacci hashing: the top bits of raw * 2^64/phi.
  size_t Home(uint64_t raw) const {
    return static_cast<size_t>((raw * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  // Slot holding `raw`, or the empty slot ending its probe run.
  size_t Probe(uint64_t raw) const {
    size_t mask = slots_.size() - 1;
    size_t i = Home(raw);
    while (slots_[i].cap != nullptr && slots_[i].raw != raw) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.cap != nullptr) {
        slots_[Probe(slot.raw)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  int shift_;
  size_t size_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_CAPABILITY_H_
