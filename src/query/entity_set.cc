#include "query/entity_set.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "query/simd_kernels.h"

namespace remi {

namespace {

/// Galloping pays once one side is an order of magnitude smaller.
constexpr size_t kGallopRatio = 16;

/// Sets `ids`' bits in a zeroed `num_words`-word bitmap. A store-once
/// variant (accumulate a word's bits in a register, one store per touched
/// word) and SIMD variants were measured against this loop on sorted
/// sparse inputs and did not beat it: the grouping branches cost more
/// than the read-modify-writes they save, and the zero fill is already
/// vectorized by libc.
void BuildBitmap(const std::vector<TermId>& ids, size_t num_words,
                 std::vector<uint64_t>* words) {
  words->assign(num_words, 0);
  for (const TermId id : ids) {
    (*words)[id >> 6] |= uint64_t{1} << (id & 63);
  }
}

void IntersectVectorsInto(const std::vector<TermId>& a,
                          const std::vector<TermId>& b,
                          std::vector<TermId>* out) {
  const std::vector<TermId>& small = a.size() <= b.size() ? a : b;
  const std::vector<TermId>& large = a.size() <= b.size() ? b : a;
  out->reserve(small.size());
  if (small.size() * kGallopRatio < large.size()) {
    // Galloping: binary-search each element of the small side in the
    // not-yet-consumed suffix of the large side.
    auto it = large.begin();
    for (const TermId id : small) {
      it = std::lower_bound(it, large.end(), id);
      if (it == large.end()) break;
      if (*it == id) out->push_back(id);
    }
  } else {
    std::set_intersection(small.begin(), small.end(), large.begin(),
                          large.end(), std::back_inserter(*out));
  }
}

std::vector<TermId> IntersectVectors(const std::vector<TermId>& a,
                                     const std::vector<TermId>& b) {
  std::vector<TermId> out;
  IntersectVectorsInto(a, b, &out);
  return out;
}

}  // namespace

EntitySet::EntitySet(std::initializer_list<TermId> ids)
    : EntitySet(FromUnsorted(std::vector<TermId>(ids), 0)) {}

EntitySet EntitySet::FromSorted(std::vector<TermId> sorted_unique,
                                size_t universe) {
  EntitySet set;
  set.ids_ = std::move(sorted_unique);
  set.size_ = set.ids_.size();
  set.universe_ = universe;
  if (!set.ids_.empty() && set.ids_.back() >= set.universe_) {
    set.universe_ = static_cast<size_t>(set.ids_.back()) + 1;
  }
  set.Adapt();
  return set;
}

EntitySet EntitySet::FromUnsorted(std::vector<TermId> ids, size_t universe) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return FromSorted(std::move(ids), universe);
}

void EntitySet::Adapt() {
  if (is_bitmap_) {
    if (!ShouldUseBitmap(size_, universe_)) ToVectorRep();
  } else {
    if (ShouldUseBitmap(size_, universe_)) ToBitmapRep();
  }
}

void EntitySet::ToBitmapRep() {
  BuildBitmap(ids_, (universe_ + 63) / 64, &words_);
  ids_.clear();
  ids_.shrink_to_fit();
  is_bitmap_ = true;
}

void EntitySet::ToVectorRep() {
  ids_.clear();
  ids_.reserve(size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      ids_.push_back(static_cast<TermId>(w * 64 + bit));
      word &= word - 1;
    }
  }
  words_.clear();
  words_.shrink_to_fit();
  is_bitmap_ = false;
}

bool EntitySet::Contains(TermId id) const {
  if (is_bitmap_) {
    if (id >= universe_) return false;
    return (words_[id >> 6] >> (id & 63)) & 1;
  }
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

EntitySet EntitySet::Intersect(const EntitySet& other) const {
  const size_t universe = std::max(universe_, other.universe_);
  if (is_bitmap_ && other.is_bitmap_) {
    EntitySet out;
    out.is_bitmap_ = true;
    out.universe_ = universe;
    const size_t common = std::min(words_.size(), other.words_.size());
    out.words_.assign((universe + 63) / 64, 0);
    out.size_ = common == 0 ? 0
                            : ActiveSetKernels().and_store_popcount(
                                  words_.data(), other.words_.data(),
                                  out.words_.data(), common);
    out.Adapt();
    return out;
  }
  if (is_bitmap_ != other.is_bitmap_) {
    // Filter the vector side through the bitmap side.
    const EntitySet& vec = is_bitmap_ ? other : *this;
    const EntitySet& map = is_bitmap_ ? *this : other;
    std::vector<TermId> out;
    out.reserve(std::min(vec.size_, map.size_));
    for (const TermId id : vec.ids_) {
      if (map.Contains(id)) out.push_back(id);
    }
    return FromSorted(std::move(out), universe);
  }
  return FromSorted(IntersectVectors(ids_, other.ids_), universe);
}

size_t EntitySet::IntersectCount(const EntitySet& other, size_t cap) const {
  if (is_bitmap_ && other.is_bitmap_) {
    const size_t common = std::min(words_.size(), other.words_.size());
    if (common == 0) return 0;
    return ActiveSetKernels().and_popcount_capped(
        words_.data(), other.words_.data(), common, cap);
  }
  if (is_bitmap_ != other.is_bitmap_) {
    const EntitySet& vec = is_bitmap_ ? other : *this;
    const EntitySet& map = is_bitmap_ ? *this : other;
    size_t count = 0;
    for (const TermId id : vec.ids_) {
      if (map.Contains(id) && ++count > cap) return count;
    }
    return count;
  }
  const std::vector<TermId>& small = size_ <= other.size_ ? ids_ : other.ids_;
  const std::vector<TermId>& large = size_ <= other.size_ ? other.ids_ : ids_;
  size_t count = 0;
  if (small.size() * kGallopRatio < large.size()) {
    auto it = large.begin();
    for (const TermId id : small) {
      it = std::lower_bound(it, large.end(), id);
      if (it == large.end()) break;
      if (*it == id && ++count > cap) return count;
    }
  } else {
    size_t i = 0, j = 0;
    while (i < small.size() && j < large.size()) {
      if (small[i] < large[j]) {
        ++i;
      } else if (large[j] < small[i]) {
        ++j;
      } else {
        ++i;
        ++j;
        if (++count > cap) return count;
      }
    }
  }
  return count;
}

void EntitySet::IntersectInto(const EntitySet& a, const EntitySet& b,
                              EntitySet* out) {
  const size_t universe = std::max(a.universe_, b.universe_);
  out->universe_ = universe;
  if (a.is_bitmap_ && b.is_bitmap_) {
    const size_t num_words = (universe + 63) / 64;
    const size_t common = std::min(a.words_.size(), b.words_.size());
    out->words_.resize(num_words);
    const size_t count =
        common == 0 ? 0
                    : ActiveSetKernels().and_store_popcount(
                          a.words_.data(), b.words_.data(),
                          out->words_.data(), common);
    std::fill(out->words_.begin() + common, out->words_.end(), 0);
    out->size_ = count;
    out->is_bitmap_ = true;
    out->ids_.clear();
    if (!ShouldUseBitmap(count, universe)) {
      // Demote to the vector representation without releasing the word
      // buffer: the frame keeps both buffers at high-water capacity.
      out->ids_.reserve(count);
      for (size_t w = 0; w < common; ++w) {
        uint64_t word = out->words_[w];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          out->ids_.push_back(static_cast<TermId>(w * 64 + bit));
          word &= word - 1;
        }
      }
      out->words_.clear();
      out->is_bitmap_ = false;
    }
    return;
  }
  out->ids_.clear();
  if (a.is_bitmap_ != b.is_bitmap_) {
    const EntitySet& vec = a.is_bitmap_ ? b : a;
    const EntitySet& map = a.is_bitmap_ ? a : b;
    out->ids_.reserve(std::min(vec.size_, map.size_));
    for (const TermId id : vec.ids_) {
      if (map.Contains(id)) out->ids_.push_back(id);
    }
  } else {
    IntersectVectorsInto(a.ids_, b.ids_, &out->ids_);
  }
  out->size_ = out->ids_.size();
  out->is_bitmap_ = false;
  if (ShouldUseBitmap(out->size_, universe)) {
    out->words_.assign((universe + 63) / 64, 0);
    for (const TermId id : out->ids_) {
      out->words_[id >> 6] |= uint64_t{1} << (id & 63);
    }
    out->ids_.clear();
    out->is_bitmap_ = true;
  } else {
    out->words_.clear();
  }
}

EntitySet EntitySet::ForcedBitmap(size_t min_universe) const {
  EntitySet out;
  out.universe_ = std::max(universe_, min_universe);
  out.size_ = size_;
  out.is_bitmap_ = true;
  const size_t num_words = (out.universe_ + 63) / 64;
  if (is_bitmap_) {
    // Same representation, possibly wider universe: copy + zero-extend.
    out.words_.assign(words_.begin(), words_.end());
    out.words_.resize(num_words, 0);
  } else {
    BuildBitmap(ids_, num_words, &out.words_);
  }
  return out;
}

bool EntitySet::SubsetOf(const EntitySet& other) const {
  if (size_ > other.size_) return false;
  if (is_bitmap_ && other.is_bitmap_) {
    const size_t common = std::min(words_.size(), other.words_.size());
    if (common > 0 && !ActiveSetKernels().subset(
                          words_.data(), other.words_.data(), common)) {
      return false;
    }
    for (size_t w = common; w < words_.size(); ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }
  if (!is_bitmap_ && !other.is_bitmap_) {
    return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                         ids_.end());
  }
  for (const TermId id : *this) {
    if (!other.Contains(id)) return false;
  }
  return true;
}

bool EntitySet::operator==(const EntitySet& other) const {
  if (size_ != other.size_) return false;
  if (!is_bitmap_ && !other.is_bitmap_) return ids_ == other.ids_;
  if (is_bitmap_ && other.is_bitmap_) {
    const size_t common = std::min(words_.size(), other.words_.size());
    if (!std::equal(words_.begin(), words_.begin() + common,
                    other.words_.begin())) {
      return false;
    }
    // Sizes match, so any surplus words are zero-filled on both sides.
    return true;
  }
  return std::equal(begin(), end(), other.begin());
}

std::vector<TermId> EntitySet::ToVector() const {
  if (!is_bitmap_) return ids_;
  std::vector<TermId> out;
  out.reserve(size_);
  for (const TermId id : *this) out.push_back(id);
  return out;
}

TermId EntitySet::NextBit(TermId from) const {
  size_t w = from >> 6;
  if (w >= words_.size()) return kNullTerm;
  uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w >= words_.size()) return kNullTerm;
    word = words_[w];
  }
  return static_cast<TermId>(w * 64 + std::countr_zero(word));
}

EntitySet::const_iterator::const_iterator(const EntitySet* set, size_t pos)
    : set_(set), pos_(pos) {
  if (pos_ >= set_->size_) return;
  current_ = set_->is_bitmap_ ? set_->NextBit(0) : set_->ids_[pos_];
}

EntitySet::const_iterator& EntitySet::const_iterator::operator++() {
  ++pos_;
  if (pos_ >= set_->size_) return *this;
  current_ = set_->is_bitmap_ ? set_->NextBit(current_ + 1)
                              : set_->ids_[pos_];
  return *this;
}

EntitySet IntersectSorted(const EntitySet& a, const EntitySet& b) {
  return a.Intersect(b);
}

bool SortedEquals(const EntitySet& a, const EntitySet& b) { return a == b; }

bool SortedSubset(const EntitySet& needle, const EntitySet& haystack) {
  return needle.SubsetOf(haystack);
}

std::ostream& operator<<(std::ostream& os, const EntitySet& set) {
  os << "{";
  size_t shown = 0;
  for (const TermId id : set) {
    if (shown > 0) os << ", ";
    if (++shown > 32) {
      os << "... (" << set.size() << " total)";
      break;
    }
    os << id;
  }
  return os << "}";
}

}  // namespace remi
