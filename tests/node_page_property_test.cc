// Property-based tests for the slotted node page: random operation
// sequences checked against a std::map model, parameterized over key/value
// size profiles (TEST_P sweep). These pin down the page-level invariants
// everything else is built on: sorted order, exact content, capacity
// accounting across compaction, and redo determinism (the same payloads
// applied to a fresh page reproduce the same image — the property crash
// recovery relies on), and the read side's safety on torn images.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "pitree/node_page.h"
#include "storage/page.h"

namespace pitree {
namespace {

struct SizeProfile {
  size_t key_min, key_max;
  size_t val_min, val_max;
  const char* name;
};

const SizeProfile kProfiles[] = {
    {4, 12, 1, 16, "small"},
    {8, 24, 50, 200, "medium"},
    {16, 40, 300, 1200, "large"},
    {1, 64, 0, 600, "mixed"},
};

class NodePageProperty : public ::testing::TestWithParam<SizeProfile> {
 protected:
  NodePageProperty() : buf_(new char[kPageSize]()), node_(buf_.get()) {
    PageInitHeader(buf_.get(), 11, PageType::kTreeNode);
    EXPECT_TRUE(node_
                    .ApplyFormat(NodeRef::FormatPayload(
                        0, 0, kBoundLowNegInf | kBoundHighPosInf, Slice(),
                        Slice(), kInvalidPageId))
                    .ok());
  }

  std::string RandomKey(Random* rnd) {
    const SizeProfile& p = GetParam();
    size_t n = p.key_min + rnd->Uniform(p.key_max - p.key_min + 1);
    std::string k;
    for (size_t i = 0; i < n; ++i) {
      k.push_back(static_cast<char>('a' + rnd->Uniform(26)));
    }
    return k;
  }

  std::string RandomValue(Random* rnd) {
    const SizeProfile& p = GetParam();
    size_t n = p.val_min + rnd->Uniform(p.val_max - p.val_min + 1);
    return std::string(n, static_cast<char>('0' + rnd->Uniform(10)));
  }

  void ExpectMatchesModel(const std::map<std::string, std::string>& model) {
    ASSERT_EQ(node_.entry_count(), static_cast<int>(model.size()));
    int i = 0;
    for (const auto& [k, v] : model) {
      EXPECT_EQ(node_.EntryKey(i).ToString(), k) << "slot " << i;
      EXPECT_EQ(node_.EntryValue(i).ToString(), v) << "slot " << i;
      ++i;
    }
  }

  std::unique_ptr<char[]> buf_;
  NodeRef node_;
};

TEST_P(NodePageProperty, RandomOpsMatchModel) {
  const uint64_t seed = TestSeed(0xC0FFEE);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  Random rnd(seed);
  std::map<std::string, std::string> model;
  std::vector<std::string> live_keys;
  for (int step = 0; step < 5000; ++step) {
    int op = static_cast<int>(rnd.Uniform(10));
    if (op < 5) {  // insert
      std::string k = RandomKey(&rnd);
      std::string v = RandomValue(&rnd);
      if (model.count(k)) {
        EXPECT_TRUE(node_.ApplyInsert(NodeRef::InsertPayload(k, v))
                        .IsCorruption());
      } else if (node_.CanFit(k.size(), v.size())) {
        ASSERT_TRUE(node_.ApplyInsert(NodeRef::InsertPayload(k, v)).ok());
        model[k] = v;
        live_keys.push_back(k);
      } else {
        EXPECT_TRUE(
            node_.ApplyInsert(NodeRef::InsertPayload(k, v)).IsNoSpace());
      }
    } else if (op < 8 && !live_keys.empty()) {  // delete a random live key
      size_t idx = rnd.Uniform(live_keys.size());
      std::string k = live_keys[idx];
      live_keys[idx] = live_keys.back();
      live_keys.pop_back();
      if (model.erase(k)) {
        ASSERT_TRUE(node_.ApplyDelete(NodeRef::DeletePayload(k)).ok());
      }
    } else if (!live_keys.empty()) {  // update a random live key
      const std::string& k = live_keys[rnd.Uniform(live_keys.size())];
      std::string v = RandomValue(&rnd);
      // In-place update may legitimately fail for lack of space.
      Status s = node_.ApplyUpdate(NodeRef::UpdatePayload(k, v));
      if (s.ok()) {
        model[k] = v;
      } else {
        EXPECT_TRUE(s.IsNoSpace());
      }
    }
    if (step % 500 == 0) ExpectMatchesModel(model);
  }
  ExpectMatchesModel(model);
}

TEST_P(NodePageProperty, FreeSpaceNeverLostAcrossChurn) {
  // Fill, empty, repeat: capacity after full drain must return to the
  // initial value (compaction reclaims all fragments).
  const uint64_t seed = TestSeed(42);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  Random rnd(seed);
  size_t initial_free = node_.FreeSpace();
  for (int round = 0; round < 5; ++round) {
    std::vector<std::string> keys;
    for (;;) {
      std::string k = RandomKey(&rnd);
      std::string v = RandomValue(&rnd);
      if (!node_.CanFit(k.size(), v.size())) break;
      bool found;
      node_.FindSlot(k, &found);
      if (found) continue;
      ASSERT_TRUE(node_.ApplyInsert(NodeRef::InsertPayload(k, v)).ok());
      keys.push_back(k);
    }
    ASSERT_GT(keys.size(), 4u);
    for (const auto& k : keys) {
      ASSERT_TRUE(node_.ApplyDelete(NodeRef::DeletePayload(k)).ok());
    }
    EXPECT_EQ(node_.FreeSpace(), initial_free) << "round " << round;
  }
}

TEST_P(NodePageProperty, RedoDeterminism) {
  // Apply a recorded sequence of ops to two independent pages: final
  // images must agree byte-for-byte in all live regions (we compare the
  // parsed content, since compaction timing may differ... it cannot: the
  // ops are identical, so the layouts match exactly).
  const uint64_t seed = TestSeed(7);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  Random rnd(seed);
  std::unique_ptr<char[]> other(new char[kPageSize]());
  PageInitHeader(other.get(), 11, PageType::kTreeNode);
  NodeRef replica(other.get());
  std::string fmt = NodeRef::FormatPayload(
      0, 0, kBoundLowNegInf | kBoundHighPosInf, Slice(), Slice(),
      kInvalidPageId);
  ASSERT_TRUE(replica.ApplyFormat(fmt).ok());

  std::map<std::string, std::string> model;
  for (int step = 0; step < 800; ++step) {
    std::string k = RandomKey(&rnd);
    std::string v = RandomValue(&rnd);
    if (model.count(k) || !node_.CanFit(k.size(), v.size())) continue;
    std::string payload = NodeRef::InsertPayload(k, v);
    ASSERT_TRUE(node_.ApplyInsert(payload).ok());
    ASSERT_TRUE(replica.ApplyInsert(payload).ok());
    model[k] = v;
    if (rnd.OneIn(3)) {
      std::string dp = NodeRef::DeletePayload(k);
      ASSERT_TRUE(node_.ApplyDelete(dp).ok());
      ASSERT_TRUE(replica.ApplyDelete(dp).ok());
      model.erase(k);
    }
  }
  // Byte-identical images (modulo the common header, which carries ids).
  EXPECT_EQ(memcmp(buf_.get() + kPageHeaderSize, other.get() + kPageHeaderSize,
                   kPageSize - kPageHeaderSize),
            0);
}

TEST_P(NodePageProperty, SplitPartitionsExactly) {
  const uint64_t seed = TestSeed(99);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  Random rnd(seed);
  std::map<std::string, std::string> model;
  for (;;) {
    std::string k = RandomKey(&rnd);
    std::string v = RandomValue(&rnd);
    if (!node_.CanFit(k.size(), v.size())) break;
    if (model.count(k)) continue;
    ASSERT_TRUE(node_.ApplyInsert(NodeRef::InsertPayload(k, v)).ok());
    model[k] = v;
  }
  ASSERT_GT(model.size(), 3u);
  std::string split_key = node_.MedianKey().ToString();
  auto moved = node_.EntriesFrom(split_key);
  ASSERT_TRUE(node_.ApplySplit(NodeRef::SplitPayload(split_key, 77)).ok());
  // Source: exactly the keys below split_key, in order.
  size_t below = 0;
  for (const auto& [k, v] : model) {
    if (k < split_key) ++below;
  }
  EXPECT_EQ(node_.entry_count(), static_cast<int>(below));
  EXPECT_EQ(moved.size(), model.size() - below);
  EXPECT_EQ(node_.right_sibling(), 77u);
  EXPECT_EQ(node_.high_key().ToString(), split_key);
  // moved + remaining == model
  std::map<std::string, std::string> rebuilt;
  for (int i = 0; i < node_.entry_count(); ++i) {
    rebuilt[node_.EntryKey(i).ToString()] = node_.EntryValue(i).ToString();
  }
  for (const auto& e : moved) rebuilt[e.key] = e.value;
  EXPECT_EQ(rebuilt, model);
}

// The optimistic descent (DESIGN.md §15) searches frames that a writer may
// be changing. NodeView must keep every read inside the page and end every
// search, whatever the image: random bytes, a valid page with one field
// corrupted, or a page torn between two valid images. It then either
// clears ok() (the reader retries) or answers from inside the page, and
// the frame's validation rejects that answer. Each image sits alone in a
// kPageSize heap buffer, so the ASan build also reports a read past it;
// frames share one arena in the pool, with no redzone between them.
TEST_P(NodePageProperty, TornImagesStayInsideThePage) {
  const uint64_t seed = TestSeed(0x70A2);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  Random rnd(seed);
  ASSERT_TRUE(
      node_.ApplySetMeta(NodeRef::MetaPayload(0, 0, 0, "a", "zz", 5)).ok());
  std::vector<std::string> keys;
  auto churn = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      std::string k = RandomKey(&rnd);
      std::string v = RandomValue(&rnd);
      bool found = false;
      node_.FindSlot(k, &found);
      if (found && rnd.OneIn(2)) {
        ASSERT_TRUE(node_.ApplyDelete(NodeRef::DeletePayload(k)).ok());
      } else if (!found && node_.CanFit(k.size(), v.size())) {
        ASSERT_TRUE(node_.ApplyInsert(NodeRef::InsertPayload(k, v)).ok());
        keys.push_back(k);
      }
    }
  };
  churn(300);
  const std::string a(buf_.get(), kPageSize);
  churn(300);
  const std::string b(buf_.get(), kPageSize);
  for (const std::string* valid : {&a, &b}) {
    std::unique_ptr<char[]> img(new char[kPageSize]);
    memcpy(img.get(), valid->data(), kPageSize);
    NodeView v(img.get());
    for (int i = 1; i < v.entry_count(); ++i) {
      EXPECT_LT(v.EntryKey(i - 1).compare(v.EntryKey(i)), 0);
    }
    EXPECT_TRUE(v.ok());
  }

  for (int iter = 0; iter < 3000; ++iter) {
    std::unique_ptr<char[]> img(new char[kPageSize]);
    char* p = img.get();
    const std::string& base = rnd.OneIn(2) ? a : b;
    const std::string& other = &base == &a ? b : a;
    memcpy(p, base.data(), kPageSize);
    if (iter % 3 == 0) {
      for (size_t i = 0; i < kPageSize; ++i) {
        p[i] = static_cast<char>(rnd.Uniform(256));
      }
    } else if (iter % 3 == 1) {
      // One field: nslots, a slot's offset, a cell's key or value length
      // varint, or a bound's offset or length.
      const NodeView v(base.data());
      const int slot =
          static_cast<int>(rnd.Uniform(std::max<int>(1, v.entry_count())));
      const size_t cell = static_cast<size_t>(
          v.EntryKey(slot).data() - base.data()) - 1;  // klen varint
      const size_t fields[] = {18,
                               40 + 4 * static_cast<size_t>(slot),
                               cell,
                               cell + 1 + v.EntryKey(slot).size(),
                               28, 30, 32, 34};
      const size_t at = fields[rnd.Uniform(8)];
      p[at] = static_cast<char>(rnd.Uniform(256) | (rnd.OneIn(2) ? 0x80 : 0));
      p[at + 1] = static_cast<char>(rnd.Uniform(256));
    } else {
      // A writer mid-copy: each 64-byte run from either image.
      for (size_t off = 0; off < kPageSize; off += 64) {
        if (rnd.OneIn(2)) memcpy(p + off, other.data() + off, 64);
      }
    }
    NodeView v(p);
    auto inside = [&](const Slice& s) {
      return s.empty() || (s.data() >= p && s.data() + s.size() <= p + kPageSize);
    };
    for (int probe = 0; probe < 8; ++probe) {
      const std::string key =
          rnd.OneIn(2) ? keys[rnd.Uniform(keys.size())] : RandomKey(&rnd);
      (void)v.AtOrAboveLow(key);
      (void)v.BelowHigh(key);
      bool found = false;
      const int slot = v.FindSlot(key, &found);
      ASSERT_GE(slot, 0);
      ASSERT_LE(slot, static_cast<int>(NodeView::kMaxSlots));
      const int child = v.FindChildSlot(key);
      ASSERT_GE(child, -1);
      ASSERT_LT(child, static_cast<int>(NodeView::kMaxSlots));
      if (child >= 0) {
        EXPECT_TRUE(inside(v.EntryKey(child)));
        EXPECT_TRUE(inside(v.EntryValue(child)));
      }
    }
    EXPECT_TRUE(inside(v.low_key()));
    EXPECT_TRUE(inside(v.high_key()));
    (void)v.UsedCellBytes();
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, NodePageProperty,
                         ::testing::ValuesIn(kProfiles),
                         [](const ::testing::TestParamInfo<SizeProfile>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace pitree
