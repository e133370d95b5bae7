// In-memory filesystem image: superblock, inodes, directory tree, extents.
//
// m3fs is an in-memory filesystem (paper §2.2): file contents live in a
// contiguous memory region on a memory tile, and the service hands out
// memory capabilities to extent-sized ranges of that region. Every service
// instance owns its own copy of the image (paper §5.3.1).
//
// The image is a functional model: lookups, directory listings, creation,
// growth and unlinking all work; file *contents* are never materialized
// (data movement is pure timing, see Dtu::Read/Write).
//
// Storage is an immutable shared base plus a per-image overlay. The paper's
// "each service has its own copy" becomes: populate a template image once,
// Freeze() it, and hand every service a copy — copies share the frozen base
// (one shared_ptr bump instead of re-indexing tens of thousands of inode
// paths per service) and diverge through their private overlays, which is
// observationally identical to a deep copy. Inodes promote into the overlay
// on first mutable access; unlinks of base entries leave tombstones. The
// base is never written after Freeze(): copies on different engine shards
// read it concurrently.
//
// Each layer is one flat open-addressing index from path to entry (see
// PathIndex below); a call hashes its path once and probes the overlay,
// then the base, with that hash.
#ifndef SEMPEROS_FS_FS_IMAGE_H_
#define SEMPEROS_FS_FS_IMAGE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/log.h"
#include "base/status.h"

namespace semperos {

// Extent size: the unit in which m3fs hands out memory capabilities. A
// client crossing an extent boundary must request an additional capability
// ("If the application exceeds this range ... it is provided with an
// additional memory capability to the next range", paper §5.3.1).
inline constexpr uint64_t kFsExtentBytes = 1024 * 1024;  // 1 MiB

struct Inode {
  uint64_t ino = 0;
  bool is_dir = false;
  uint64_t size = 0;    // current file size in bytes
  uint64_t offset = 0;  // byte offset of extent 0 inside the image region
  uint64_t reserved = 0;  // bytes reserved in the image (capacity)
};

class FsImage {
 public:
  FsImage() { AddDir("/"); }

  // Merges the overlay into a new immutable base. Copies taken afterwards
  // share that base; call once after populating a template image.
  void Freeze();

  // Creates a directory (parents must exist).
  void AddDir(std::string_view path);

  // Creates a file with `reserve` bytes of image space; `size` bytes are
  // considered written. Returns the inode.
  const Inode* AddFile(std::string_view path, uint64_t size, uint64_t reserve = 0);

  const Inode* Lookup(std::string_view path) const;
  // Returns the overlay's inode, promoting a base inode on first access.
  // Inodes sit in stable blocks, so the pointer stays valid across later
  // image operations until the path is unlinked.
  Inode* LookupMutable(std::string_view path);

  // Number of entries directly inside `dir`.
  uint32_t CountEntries(std::string_view dir) const;

  // Removes a file (not a directory). The image space is not reclaimed
  // (m3fs-style log allocation). Returns false if the path is unknown.
  bool Unlink(std::string_view path);

  // Grows `inode` to hold at least `new_size` bytes, extending the image
  // region if needed.
  void Grow(Inode* inode, uint64_t new_size);

  // Total bytes of image space in use (the service's memory region size
  // must cover this; callers reserve headroom for growth).
  uint64_t bytes_used() const { return next_offset_; }

  size_t inode_count() const { return live_; }

  // Entries this image's overlay has allocated: promotions, additions and
  // tombstones, plus erased entries kept for reuse. What a copy costs beyond
  // the shared base.
  size_t overlay_entries() const { return overlay_.allocated(); }

 private:
  // One path of one layer. A tombstone (dead) hides the base entry of the
  // same path. `children` counts the live entries CountEntries reports for
  // this path; it belongs to the path, so a tombstone keeps it for as long
  // as a file that had children is gone.
  struct Entry {
    std::string path;
    Inode inode;
    uint32_t children = 0;
    bool dead = false;
  };

  // Path -> Entry*, open addressing: power-of-two slot array at load <= 1/2,
  // linear probing, backward-shift deletion (no index tombstones). Each slot
  // keeps the path's full hash, so a probe compares strings only on a hash
  // match. Entries live in a deque (stable addresses); erased entries wait on
  // a free list for the next insert, which reuses their path buffer.
  class PathIndex {
   public:
    PathIndex();
    PathIndex(const PathIndex& other);
    PathIndex& operator=(const PathIndex& other);
    PathIndex(PathIndex&&) = default;
    PathIndex& operator=(PathIndex&&) = default;

    const Entry* Find(std::string_view path, uint64_t hash) const {
      return slots_[Probe(path, hash)].entry;
    }
    Entry* Find(std::string_view path, uint64_t hash) {
      return slots_[Probe(path, hash)].entry;
    }
    // Adds a fresh entry for `path`, which must be absent.
    Entry* Insert(std::string_view path, uint64_t hash);
    // Adds a copy of `entry` (from another layer) under `hash`.
    Entry* InsertCopy(const Entry& entry, uint64_t hash);
    void Erase(std::string_view path, uint64_t hash);

    size_t allocated() const { return entries_.size(); }

    // Invokes fn(const Entry&, hash) for every entry, in slot order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (const Slot& slot : slots_) {
        if (slot.entry != nullptr) {
          fn(*slot.entry, slot.hash);
        }
      }
    }

   private:
    struct Slot {
      uint64_t hash = 0;
      Entry* entry = nullptr;  // null marks an empty slot
    };
    static constexpr int kMinSlotsLog2 = 4;

    size_t Home(uint64_t hash) const { return static_cast<size_t>(hash >> shift_); }
    // Slot holding `path`, or the empty slot ending its probe run.
    size_t Probe(std::string_view path, uint64_t hash) const {
      size_t mask = slots_.size() - 1;
      size_t i = Home(hash);
      while (slots_[i].entry != nullptr &&
             (slots_[i].hash != hash || slots_[i].entry->path != path)) {
        i = (i + 1) & mask;
      }
      return i;
    }
    Entry* NewEntry();
    void Place(Entry* entry, uint64_t hash);
    void Grow();

    std::vector<Slot> slots_;
    int shift_;
    size_t size_ = 0;
    std::deque<Entry> entries_;
    std::vector<Entry*> free_;
  };

  // The entry for `path` in the layer that decides it: the overlay's if it
  // has one, else the base's; dead entries included.
  const Entry* Find(std::string_view path, uint64_t hash) const;
  // Find() made overlay-resident: a base entry is copied up first.
  Entry* FindMutable(std::string_view path, uint64_t hash);
  // Makes `path` live with a fresh inode numbered next: revives its
  // tombstone (which keeps its child count) or adds an entry, and counts it
  // in its parent directory, which must exist.
  Inode* Create(std::string_view path, uint64_t hash);

  std::shared_ptr<const PathIndex> base_;  // frozen snapshot, shared by copies
  PathIndex overlay_;                      // local additions, promotions, tombstones
  size_t live_ = 0;                        // current inode count
  uint64_t next_ino_ = 1;
  uint64_t next_offset_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_FS_FS_IMAGE_H_
