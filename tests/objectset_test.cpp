//===- tests/objectset_test.cpp - Hybrid points-to set unit tests ---------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// ObjectSet is the solver's per-node points-to set; its contract — stable
// insertion positions, exact promotion at the inline boundary, idempotent
// insert in both representations — is what keeps the solver's replay and
// delta-propagation paths snapshot-free.  These tests pin that contract
// down, cross-checking against std::unordered_set on randomized workloads.
//
//===----------------------------------------------------------------------===//

#include "support/ObjectSet.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

namespace {

using namespace pt;

TEST(ObjectSet, EmptySet) {
  ObjectSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(0));
  EXPECT_FALSE(S.contains(12345));
  EXPECT_FALSE(S.isBitmap());
}

TEST(ObjectSet, InsertReportsNewness) {
  ObjectSet S;
  EXPECT_TRUE(S.insert(7));
  EXPECT_FALSE(S.insert(7)); // idempotent in inline mode
  EXPECT_TRUE(S.insert(9));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(7));
  EXPECT_TRUE(S.contains(9));
  EXPECT_FALSE(S.contains(8));
}

TEST(ObjectSet, PromotionBoundary) {
  // Exactly InlineLimit elements stay inline; the next distinct element
  // flips the representation.  Duplicates must not trigger promotion.
  ObjectSet S;
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_TRUE(S.insert(I * 100));
  EXPECT_FALSE(S.isBitmap());
  EXPECT_EQ(S.size(), ObjectSet::InlineLimit);

  // Re-inserting existing elements keeps the set inline.
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_FALSE(S.insert(I * 100));
  EXPECT_FALSE(S.isBitmap());

  // The (InlineLimit+1)-th distinct element promotes.
  EXPECT_TRUE(S.insert(999999));
  EXPECT_TRUE(S.isBitmap());
  EXPECT_EQ(S.size(), ObjectSet::InlineLimit + 1);

  // Everything inserted before the promotion is still present after it.
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_TRUE(S.contains(I * 100));
  EXPECT_TRUE(S.contains(999999));
  EXPECT_FALSE(S.contains(50));
}

TEST(ObjectSet, IdempotentInsertAfterPromotion) {
  ObjectSet S;
  for (uint32_t I = 0; I <= ObjectSet::InlineLimit; ++I)
    S.insert(I);
  ASSERT_TRUE(S.isBitmap());
  uint32_t Size = S.size();
  for (uint32_t I = 0; I <= ObjectSet::InlineLimit; ++I)
    EXPECT_FALSE(S.insert(I));
  EXPECT_EQ(S.size(), Size);
}

TEST(ObjectSet, PositionalStabilityAcrossPromotion) {
  // at(Pos) must return the Pos-th *inserted* element forever — the solver
  // replays sets by position while they grow, including across the
  // inline->bitmap promotion.
  ObjectSet S;
  std::vector<uint32_t> Inserted;
  Rng R(31);
  while (Inserted.size() < 400) {
    uint32_t V = static_cast<uint32_t>(R.below(100000));
    if (S.insert(V)) {
      Inserted.push_back(V);
      // Every already-inserted element keeps its position.
      for (uint32_t P = 0; P < Inserted.size(); ++P)
        ASSERT_EQ(S.at(P), Inserted[P]);
    }
  }
  EXPECT_TRUE(S.isBitmap());
}

TEST(ObjectSet, DeltaIteration) {
  // The solver's difference propagation: a cursor into [0, size()) sees
  // exactly the suffix of facts inserted since the cursor last caught up,
  // each exactly once, even when inserts interleave with scanning.
  ObjectSet S;
  uint32_t Cursor = 0;
  std::vector<uint32_t> Seen;

  auto Drain = [&] {
    while (Cursor < S.size())
      Seen.push_back(S.at(Cursor++));
  };

  for (uint32_t V : {5u, 3u, 9u})
    S.insert(V);
  Drain();
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 3, 9}));

  // New facts (plus duplicates, which must not reappear in the delta).
  S.insert(3);
  S.insert(70);
  S.insert(5);
  S.insert(2000); // crosses nothing yet; still inline
  Drain();
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 3, 9, 70, 2000}));

  // Push far past the promotion boundary; the delta suffix must cover
  // every new element exactly once, in insertion order.
  for (uint32_t I = 0; I < 100; ++I)
    S.insert(10000 + I);
  ASSERT_TRUE(S.isBitmap());
  Drain();
  ASSERT_EQ(Seen.size(), 105u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(Seen[5 + I], 10000 + I);
  EXPECT_EQ(Cursor, S.size());
}

TEST(ObjectSet, SparseIdsFarApart) {
  // The chunked directory must handle ids spread across distant pages
  // without materializing the range in between.
  ObjectSet S;
  std::vector<uint32_t> Ids = {0,       1,        511,      512,
                               513,     1u << 16, 1u << 20, (1u << 20) + 1,
                               3000000, 3000511};
  for (uint32_t V : Ids)
    EXPECT_TRUE(S.insert(V));
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_TRUE(S.insert(100 + I)); // force promotion past InlineLimit
  for (uint32_t V : Ids)
    EXPECT_TRUE(S.contains(V));
  EXPECT_FALSE(S.contains(2));
  EXPECT_FALSE(S.contains(514));
  EXPECT_FALSE(S.contains(2999999));
  EXPECT_FALSE(S.contains((1u << 20) + 2));
  // Sparse population stays sparse: ten distant ids must cost far less
  // than a dense bitmap over [0, 3000511].
  EXPECT_LT(S.memoryBytes(), 64 * 1024u);
}

/// Checks that \p S holds exactly \p Want, in that insertion order.
void expectElements(const ObjectSet &S, const std::vector<uint32_t> &Want) {
  ASSERT_EQ(S.size(), Want.size());
  for (uint32_t P = 0; P < Want.size(); ++P) {
    EXPECT_EQ(S.at(P), Want[P]);
    EXPECT_TRUE(S.contains(Want[P]));
  }
  EXPECT_FALSE(S.contains(999999));
}

TEST(ObjectSet, MoveKeepsElementsInBothModes) {
  // Solver nodes embed their set and move with the node vector, so a
  // move must carry the out-of-line bitmap along with the order array.
  std::vector<uint32_t> Small = {7, 3, 11};
  std::vector<uint32_t> Large;
  for (uint32_t I = 0; I < 40; ++I)
    Large.push_back(1000 + 37 * I);
  for (const std::vector<uint32_t> *Want : {&Small, &Large}) {
    ObjectSet S;
    for (uint32_t V : *Want)
      S.insert(V);
    bool WasBitmap = S.isBitmap();
    EXPECT_EQ(WasBitmap, Want == &Large);
    ObjectSet Moved(std::move(S));
    EXPECT_EQ(Moved.isBitmap(), WasBitmap);
    expectElements(Moved, *Want);
    ObjectSet Assigned;
    Assigned.insert(5);
    Assigned = std::move(Moved);
    EXPECT_EQ(Assigned.isBitmap(), WasBitmap);
    expectElements(Assigned, *Want);
    // The moved-into set keeps working in its mode.
    EXPECT_TRUE(Assigned.insert(424242));
    EXPECT_TRUE(Assigned.contains(424242));
    EXPECT_FALSE(Assigned.insert(Want->front()));
  }
}

TEST(ObjectSet, VectorOfSetsSurvivesReallocation) {
  // The solver's node array grows by reallocation while sets are live;
  // every set, inline or promoted, must come through with its elements,
  // positions and membership intact.
  std::vector<ObjectSet> Sets;
  std::vector<std::vector<uint32_t>> Want;
  for (uint32_t I = 0; I < 200; ++I) {
    size_t Cap = Sets.capacity();
    Sets.emplace_back();
    Want.emplace_back();
    // Every third set promotes; the rest stay linear.
    uint32_t N = I % 3 == 0 ? ObjectSet::InlineLimit + 1 + I % 7 : I % 5;
    for (uint32_t K = 0; K < N; ++K) {
      uint32_t V = I * 1000 + 17 * K;
      Sets.back().insert(V);
      Want.back().push_back(V);
    }
    if (Sets.capacity() != Cap)
      for (uint32_t J = 0; J <= I; ++J)
        expectElements(Sets[J], Want[J]);
  }
  for (uint32_t J = 0; J < Sets.size(); ++J) {
    EXPECT_EQ(Sets[J].isBitmap(), J % 3 == 0);
    expectElements(Sets[J], Want[J]);
  }
}

TEST(ObjectSet, MemoryBytesCountsTheBitmap) {
  ObjectSet S;
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    S.insert(I);
  ASSERT_FALSE(S.isBitmap());
  size_t Linear = S.memoryBytes();
  EXPECT_GE(Linear, ObjectSet::InlineLimit * sizeof(uint32_t));
  // Promotion adds the directory and one 512-bit chunk (64 bytes) behind
  // the pointer, on top of the order array.
  S.insert(ObjectSet::InlineLimit);
  ASSERT_TRUE(S.isBitmap());
  EXPECT_GE(S.memoryBytes(), (ObjectSet::InlineLimit + 1) * sizeof(uint32_t) +
                                 sizeof(int32_t) + 64);
  // A chunk on a distant page grows the bitmap, not the order array alone.
  size_t Before = S.memoryBytes();
  S.insert(1u << 20);
  EXPECT_GE(S.memoryBytes(), Before + 64);
}

TEST(ObjectSet, RandomizedVsUnorderedSet) {
  Rng R(77);
  ObjectSet S;
  std::unordered_set<uint32_t> Ref;
  for (int I = 0; I < 20000; ++I) {
    uint32_t V = static_cast<uint32_t>(R.below(5000));
    EXPECT_EQ(S.insert(V), Ref.insert(V).second);
  }
  EXPECT_EQ(S.size(), Ref.size());
  for (uint32_t V = 0; V < 5000; ++V)
    EXPECT_EQ(S.contains(V), Ref.count(V) != 0);

  // forEach visits each element exactly once.
  std::unordered_set<uint32_t> Visited;
  S.forEach([&](uint32_t V) { EXPECT_TRUE(Visited.insert(V).second); });
  EXPECT_EQ(Visited, Ref);
}

} // namespace
