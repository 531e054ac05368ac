//===- SupportTest.cpp - Support utilities --------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace pathfuzz;

namespace {

std::vector<uint8_t> varintBytes(uint64_t V) {
  ByteWriter W;
  W.varint(V);
  return W.take();
}

TEST(Bytes, VarintRoundTripsEdgeValues) {
  const std::pair<uint64_t, size_t> Cases[] = {
      {0, 1},          {127, 1},           {128, 2},
      {16383, 2},      {16384, 3},         {0xffffffffull, 5},
      {~0ull >> 1, 9}, {~0ull, 10},
  };
  for (auto [V, Len] : Cases) {
    std::vector<uint8_t> Buf = varintBytes(V);
    EXPECT_EQ(Buf.size(), Len) << V;
    ByteReader R(Buf);
    EXPECT_EQ(R.varint(), V);
    EXPECT_TRUE(R.done()) << V;
  }
}

TEST(Bytes, VarintRejectsNonCanonicalAndTruncated) {
  auto Rejects = [](std::vector<uint8_t> Buf) {
    ByteReader R(Buf);
    (void)R.varint();
    return !R.ok();
  };
  // Eleven bytes: longer than any u64 needs.
  std::vector<uint8_t> Eleven(10, 0x80);
  Eleven.push_back(0x01);
  EXPECT_TRUE(Rejects(Eleven));
  // Ten bytes whose last group carries bits past 2^64.
  std::vector<uint8_t> Overflow(9, 0xff);
  Overflow.push_back(0x02);
  EXPECT_TRUE(Rejects(Overflow));
  // A redundant zero final group (0 written in two bytes).
  EXPECT_TRUE(Rejects({0x80, 0x00}));
  // Continuation bit set on the last byte, and an empty buffer.
  EXPECT_TRUE(Rejects({0x80}));
  EXPECT_TRUE(Rejects({}));
}

TEST(Bytes, AscendingSetRoundTrips) {
  const std::vector<std::vector<uint32_t>> Sets = {
      {},
      {0},
      {0xffffffffu},
      {0, 1, 2, 3},
      {0, 127, 128, 255, 16384, 0xfffffffeu, 0xffffffffu},
  };
  for (const std::vector<uint32_t> &Xs : Sets) {
    ByteWriter W;
    W.ascendingU32(Xs);
    std::vector<uint8_t> Buf = W.take();
    ByteReader R(Buf);
    EXPECT_EQ(R.ascendingU32(uint64_t(1) << 32), Xs);
    EXPECT_TRUE(R.done());
  }
  // A dense run costs one byte per element plus the count.
  ByteWriter W;
  W.ascendingU32({100, 101, 102, 103});
  EXPECT_EQ(W.data().size(), 5u);
}

TEST(Bytes, AscendingSetRejectsMalformedInput) {
  auto Encode = [](const std::vector<uint32_t> &Xs) {
    ByteWriter W;
    W.ascendingU32(Xs);
    return W.take();
  };
  auto Rejects = [](const std::vector<uint8_t> &Buf, uint64_t Bound) {
    ByteReader R(Buf);
    std::vector<uint32_t> Out = R.ascendingU32(Bound);
    return !R.ok() && Out.empty();
  };
  // An element at the bound, first or last; one below it is accepted.
  EXPECT_TRUE(Rejects(Encode({16}), 16));
  EXPECT_TRUE(Rejects(Encode({3, 9, 16}), 16));
  EXPECT_FALSE(Rejects(Encode({3, 9, 15}), 16));
  // A gap that would carry past 2^32.
  EXPECT_TRUE(Rejects({2, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0x01}, ~0ull));
  // A count larger than the remaining bytes.
  EXPECT_TRUE(Rejects({5, 0, 0, 0, 0}, 16));
  EXPECT_TRUE(Rejects(varintBytes(~0ull), 16));
  // Truncated in mid-element: the last gap's continuation byte is cut.
  std::vector<uint8_t> Cut = Encode({1, 300});
  Cut.pop_back();
  EXPECT_TRUE(Rejects(Cut, 1000));
}

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123), C(124);
  bool AnyDiff = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t Va = A.next();
    EXPECT_EQ(Va, B.next());
    AnyDiff |= (Va != C.next());
  }
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.below(Bound), Bound);
  }
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

TEST(Stats, MedianAndGeomean) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0);
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(geomean({5}), 5);
  EXPECT_DOUBLE_EQ(geomean({0, -3}), 0);  // non-positive skipped
  EXPECT_DOUBLE_EQ(geomean({0, 4, 4}), 4);
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2);
  Summary S = Summary::of({1, 5, 3});
  EXPECT_DOUBLE_EQ(S.Min, 1);
  EXPECT_DOUBLE_EQ(S.Max, 5);
  EXPECT_DOUBLE_EQ(S.Median, 3);
}

TEST(Hashing, CombineAndFnv) {
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(mix64(0), mix64(1));
}

TEST(Table, RendersAlignedColumns) {
  Table T("title");
  T.setHeader({"name", "v"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("title"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
  EXPECT_EQ(Table::pair(3, 14), "3 (14)");
  EXPECT_EQ(Table::fixed(1.234, 1), "1.2");
}

TEST(Env, ParsesValuesAndLists) {
  ::setenv("PF_TEST_INT", "42", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 42u);
  ::setenv("PF_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::unsetenv("PF_TEST_INT");
  EXPECT_EQ(envU64("PF_TEST_INT", 9), 9u);

  // Out-of-range values are malformed, not saturated: strtoull would
  // silently wrap "-1" to ULLONG_MAX and clamp overflow with ERANGE.
  ::setenv("PF_TEST_INT", "-1", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "99999999999999999999999", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "18446744073709551615", 1); // exactly UINT64_MAX
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 18446744073709551615ull);
  ::setenv("PF_TEST_INT", "18446744073709551616", 1); // UINT64_MAX + 1
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "12x", 1); // trailing junk
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::unsetenv("PF_TEST_INT");

  ::setenv("PF_TEST_LIST", "a, b,c", 1);
  std::vector<std::string> Xs = envList("PF_TEST_LIST");
  ASSERT_EQ(Xs.size(), 3u);
  EXPECT_EQ(Xs[0], "a");
  EXPECT_EQ(Xs[1], "b");
  EXPECT_EQ(Xs[2], "c");
  ::unsetenv("PF_TEST_LIST");
}

TEST(Env, ParseU64IsStrict) {
  uint64_t V = 99;
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, ~0ull);

  // Rejections must leave the output untouched.
  V = 42;
  EXPECT_FALSE(parseU64("", V));
  EXPECT_FALSE(parseU64(" 1", V));
  EXPECT_FALSE(parseU64("1 ", V));
  EXPECT_FALSE(parseU64("+1", V));
  EXPECT_FALSE(parseU64("-1", V));
  EXPECT_FALSE(parseU64("0x10", V));
  EXPECT_FALSE(parseU64("12junk", V));
  EXPECT_FALSE(parseU64("18446744073709551616", V)); // UINT64_MAX + 1
  EXPECT_FALSE(parseU64("99999999999999999999999", V));
  EXPECT_EQ(V, 42u);
}

TEST(Env, BoolMatchesAuditContract) {
  ::unsetenv("PF_TEST_BOOL");
  EXPECT_TRUE(envBool("PF_TEST_BOOL", true));
  EXPECT_FALSE(envBool("PF_TEST_BOOL", false));
  ::setenv("PF_TEST_BOOL", "", 1);
  EXPECT_TRUE(envBool("PF_TEST_BOOL", true));
  ::setenv("PF_TEST_BOOL", "0", 1);
  EXPECT_FALSE(envBool("PF_TEST_BOOL", true));
  ::setenv("PF_TEST_BOOL", "1", 1);
  EXPECT_TRUE(envBool("PF_TEST_BOOL", false));
  ::setenv("PF_TEST_BOOL", "yes", 1); // anything non-"0" enables
  EXPECT_TRUE(envBool("PF_TEST_BOOL", false));
  ::unsetenv("PF_TEST_BOOL");
}

TEST(Env, SplitSpecRejectsMalformedEntries) {
  std::string Name = "keep";
  uint64_t Value = 7;
  ASSERT_TRUE(splitSpecU64("sample@512", Name, Value));
  EXPECT_EQ(Name, "sample");
  EXPECT_EQ(Value, 512u);

  // All of these leave the outputs untouched — a typo skips the spec
  // instead of arming it half-parsed.
  Name = "keep";
  Value = 7;
  EXPECT_FALSE(splitSpecU64("", Name, Value));
  EXPECT_FALSE(splitSpecU64("noat", Name, Value));
  EXPECT_FALSE(splitSpecU64("@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@junk", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@-2", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@18446744073709551616", Name, Value));
  // 0x-prefixed values are typos, not hex input.
  EXPECT_FALSE(splitSpecU64("site@0x10", Name, Value));
  // Whitespace around the separator (or anywhere in the spec) makes the
  // entry malformed as a whole. envList strips only plain spaces, so a
  // tab used to flow straight into the *name* — arming a fault site or
  // trace series under a name no lookup would ever match.
  EXPECT_FALSE(splitSpecU64("site @5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@ 5", Name, Value));
  EXPECT_FALSE(splitSpecU64(" site@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@5 ", Name, Value));
  EXPECT_FALSE(splitSpecU64("si\tte@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site\t@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@5\n", Name, Value));
  EXPECT_EQ(Name, "keep");
  EXPECT_EQ(Value, 7u);
}

TEST(Env, FaultSpecListRejectsWhitespaceNames) {
  // End-to-end regression through armFromEnv: a tab inside a spec entry
  // survives envList's space stripping; the malformed entry must be
  // skipped, not armed under an unmatchable name (hit-count *and*
  // probabilistic forms).
  fault::ScopedFaultInjection Guard;
  ::setenv("PATHFUZZ_FAULT_SITES", "si\tte@2,site\t%500,good@1", 1);
  EXPECT_EQ(fault::armFromEnv(), 1u);
  EXPECT_TRUE(fault::shouldFail("good"));
  EXPECT_FALSE(fault::shouldFail("si\tte"));
  EXPECT_FALSE(fault::shouldFail("site\t"));
  ::unsetenv("PATHFUZZ_FAULT_SITES");
}

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  for (size_t Threads : {1u, 2u, 4u}) {
    ThreadPool Pool(Threads);
    constexpr size_t N = 500;
    std::vector<std::atomic<int>> Ran(N);
    for (auto &R : Ran)
      R.store(0);
    for (size_t I = 0; I < N; ++I)
      Pool.submit([&Ran, I] { Ran[I].fetch_add(1); });
    Pool.wait();
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Ran[I].load(), 1) << "job " << I << " @" << Threads;
  }
}

TEST(ThreadPool, TrySubmitHonorsTheDispatchFaultSite) {
  fault::ScopedFaultInjection Guard;
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};

  // No fault armed: trySubmit behaves exactly like submit.
  EXPECT_TRUE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));

  fault::SiteConfig C;
  C.FailOnHit = 1;
  fault::armSite("support.pool.dispatch", C);
  // The rejected job is NOT enqueued; the next attempt goes through.
  EXPECT_FALSE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));
  EXPECT_TRUE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));
  Pool.wait();
  EXPECT_EQ(Ran.load(), 2);
}

TEST(ThreadPool, StealsAcrossWorkers) {
  // One slow job pins a worker; the fast jobs round-robined onto its
  // deque must be stolen and finished by its peers well before the slow
  // job completes.
  ThreadPool Pool(4);
  std::atomic<int> FastDone{0};
  std::atomic<bool> Release{false};
  Pool.submit([&] {
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  for (int I = 0; I < 100; ++I)
    Pool.submit([&] {
      if (FastDone.fetch_add(1) + 1 == 100)
        Release.store(true);
    });
  Pool.wait();
  EXPECT_EQ(FastDone.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("PATHFUZZ_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  ::unsetenv("PATHFUZZ_JOBS");
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

} // namespace
