#include "fs/fs_image.h"

#include <cstring>
#include <utility>

namespace semperos {

namespace {

uint64_t RoundUpToExtent(uint64_t bytes) {
  if (bytes == 0) {
    return kFsExtentBytes;
  }
  return (bytes + kFsExtentBytes - 1) / kFsExtentBytes * kFsExtentBytes;
}

// 64-bit string hash, eight bytes per multiply, finished with MurmurHash3's
// fmix64 so that the top bits (the index's home slot) depend on every byte.
uint64_t HashPath(std::string_view path) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t h = path.size() * kMul;
  const char* p = path.data();
  size_t n = path.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// The directory a path is created in, and whether CountEntries(dir) lists
// the path. Listing is by name prefix: "dir/" followed by a last component
// without '/', with "/" as the root's prefix. So a name with no '/' after
// the root ("f"), one ending in '/' and "//f" have a parent but are listed
// nowhere.
struct ParentRef {
  std::string_view path;
  bool lists_child;
};

ParentRef ParentOf(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == 0 || pos == std::string_view::npos) {
    return {"/", pos == 0 && path.size() > 1};
  }
  bool root_slash = pos == 1 && path[0] == '/';
  return {path.substr(0, pos), pos + 1 < path.size() && !root_slash};
}

}  // namespace

// ---------------------------------------------------------------------------
// PathIndex
// ---------------------------------------------------------------------------

FsImage::PathIndex::PathIndex()
    : slots_(size_t{1} << kMinSlotsLog2), shift_(64 - kMinSlotsLog2) {}

FsImage::PathIndex::PathIndex(const PathIndex& other)
    : slots_(other.slots_.size()), shift_(other.shift_), size_(other.size_) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (other.slots_[i].entry != nullptr) {
      slots_[i] = Slot{other.slots_[i].hash, &entries_.emplace_back(*other.slots_[i].entry)};
    }
  }
}

FsImage::PathIndex& FsImage::PathIndex::operator=(const PathIndex& other) {
  if (this != &other) {
    *this = PathIndex(other);
  }
  return *this;
}

FsImage::Entry* FsImage::PathIndex::NewEntry() {
  if (free_.empty()) {
    return &entries_.emplace_back();
  }
  Entry* entry = free_.back();
  free_.pop_back();
  return entry;
}

void FsImage::PathIndex::Place(Entry* entry, uint64_t hash) {
  if (2 * (size_ + 1) > slots_.size()) {
    Grow();
  }
  size_t i = Probe(entry->path, hash);
  CHECK(slots_[i].entry == nullptr) << "duplicate path " << entry->path;
  slots_[i] = Slot{hash, entry};
  ++size_;
}

FsImage::Entry* FsImage::PathIndex::Insert(std::string_view path, uint64_t hash) {
  Entry* entry = NewEntry();
  entry->path.assign(path);  // a recycled entry reuses its path buffer
  entry->inode = Inode();
  entry->children = 0;
  entry->dead = false;
  Place(entry, hash);
  return entry;
}

FsImage::Entry* FsImage::PathIndex::InsertCopy(const Entry& from, uint64_t hash) {
  Entry* entry = NewEntry();
  *entry = from;
  Place(entry, hash);
  return entry;
}

void FsImage::PathIndex::Erase(std::string_view path, uint64_t hash) {
  size_t hole = Probe(path, hash);
  CHECK(slots_[hole].entry != nullptr) << "erase of unknown path " << path;
  free_.push_back(slots_[hole].entry);
  --size_;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless that would move it before its home slot.
  size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].entry != nullptr; j = (j + 1) & mask) {
    size_t home = Home(slots_[j].hash);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void FsImage::PathIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  --shift_;
  size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry != nullptr) {
      size_t i = Home(slot.hash);
      while (slots_[i].entry != nullptr) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }
  }
}

// ---------------------------------------------------------------------------
// FsImage
// ---------------------------------------------------------------------------

const FsImage::Entry* FsImage::Find(std::string_view path, uint64_t hash) const {
  if (const Entry* entry = overlay_.Find(path, hash)) {
    return entry;
  }
  return base_ != nullptr ? base_->Find(path, hash) : nullptr;
}

FsImage::Entry* FsImage::FindMutable(std::string_view path, uint64_t hash) {
  if (Entry* entry = overlay_.Find(path, hash)) {
    return entry;
  }
  const Entry* below = base_ != nullptr ? base_->Find(path, hash) : nullptr;
  return below != nullptr ? overlay_.InsertCopy(*below, hash) : nullptr;
}

void FsImage::Freeze() {
  if (base_ == nullptr) {
    base_ = std::make_shared<const PathIndex>(std::move(overlay_));
    overlay_ = PathIndex();
    return;
  }
  // A tombstone without children only hid a base entry the merge drops.
  auto keep = [](const Entry& entry) { return !entry.dead || entry.children > 0; };
  auto merged = std::make_shared<PathIndex>();
  size_t live = 0;
  auto add = [&](const Entry& entry, uint64_t hash) {
    merged->InsertCopy(entry, hash);
    live += entry.dead ? 0 : 1;
  };
  base_->ForEach([&](const Entry& entry, uint64_t hash) {
    if (keep(entry) && overlay_.Find(entry.path, hash) == nullptr) {
      add(entry, hash);
    }
  });
  overlay_.ForEach([&](const Entry& entry, uint64_t hash) {
    if (keep(entry)) {
      add(entry, hash);
    }
  });
  CHECK_EQ(live, live_);
  base_ = std::move(merged);
  overlay_ = PathIndex();
}

Inode* FsImage::Create(std::string_view path, uint64_t hash) {
  ParentRef parent = ParentOf(path);
  uint64_t parent_hash = HashPath(parent.path);
  if (path != "/") {
    const Entry* dir = Find(parent.path, parent_hash);
    CHECK(dir != nullptr && !dir->dead) << "parent of " << path << " missing";
  }
  Entry* entry = FindMutable(path, hash);  // a tombstone keeps its children
  if (entry == nullptr) {
    entry = overlay_.Insert(path, hash);
  }
  entry->inode = Inode();
  entry->inode.ino = next_ino_++;
  entry->dead = false;
  ++live_;
  if (parent.lists_child) {
    FindMutable(parent.path, parent_hash)->children++;
  }
  return &entry->inode;
}

void FsImage::AddDir(std::string_view path) {
  uint64_t hash = HashPath(path);
  const Entry* entry = Find(path, hash);
  if (entry != nullptr && !entry->dead) {
    return;
  }
  Create(path, hash)->is_dir = true;
}

const Inode* FsImage::AddFile(std::string_view path, uint64_t size, uint64_t reserve) {
  uint64_t hash = HashPath(path);
  const Entry* entry = Find(path, hash);
  CHECK(entry == nullptr || entry->dead) << path << " exists";
  Inode* inode = Create(path, hash);
  inode->is_dir = false;
  inode->size = size;
  inode->reserved = RoundUpToExtent(reserve > size ? reserve : size);
  inode->offset = next_offset_;
  next_offset_ += inode->reserved;
  return inode;
}

const Inode* FsImage::Lookup(std::string_view path) const {
  const Entry* entry = Find(path, HashPath(path));
  return entry != nullptr && !entry->dead ? &entry->inode : nullptr;
}

Inode* FsImage::LookupMutable(std::string_view path) {
  // Promote: first mutable access copies a base inode into the overlay.
  Entry* entry = FindMutable(path, HashPath(path));
  return entry != nullptr && !entry->dead ? &entry->inode : nullptr;
}

uint32_t FsImage::CountEntries(std::string_view dir) const {
  if (dir.empty()) {
    dir = "/";  // lists the same prefix as the root
  }
  // An unlinked parent keeps its count: its children are still there.
  const Entry* entry = Find(dir, HashPath(dir));
  return entry != nullptr ? entry->children : 0;
}

bool FsImage::Unlink(std::string_view path) {
  uint64_t hash = HashPath(path);
  Entry* entry = overlay_.Find(path, hash);
  const Entry* below = base_ != nullptr ? base_->Find(path, hash) : nullptr;
  const Entry* found = entry != nullptr ? entry : below;
  if (found == nullptr || found->dead || found->inode.is_dir) {
    return false;
  }
  if (below == nullptr && entry->children == 0) {
    overlay_.Erase(path, hash);
  } else {
    // A tombstone: it hides the base entry and keeps the child count.
    (entry != nullptr ? entry : overlay_.InsertCopy(*below, hash))->dead = true;
  }
  --live_;
  ParentRef parent = ParentOf(path);
  if (parent.lists_child) {
    FindMutable(parent.path, HashPath(parent.path))->children--;
  }
  return true;
}

void FsImage::Grow(Inode* inode, uint64_t new_size) {
  CHECK(inode != nullptr);
  if (new_size <= inode->size) {
    return;
  }
  if (new_size > inode->reserved) {
    // Relocate to the end of the log (m3fs-style append allocation).
    inode->reserved = RoundUpToExtent(new_size);
    inode->offset = next_offset_;
    next_offset_ += inode->reserved;
  }
  inode->size = new_size;
}

}  // namespace semperos
