// Name semantics across the interned-name migration: NameTable behaviour,
// fresh_name uniqueness, collision-prone auto-naming, and name preservation
// through compacted() / validate() / .bench round trips.
#include "netlist/name_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace autolock::netlist {
namespace {

TEST(NameTable, InternDedupesAndRoundTrips) {
  NameTable table;
  const NameId a = table.intern("alpha");
  const NameId b = table.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("alpha"), a);
  EXPECT_EQ(table.text(a), "alpha");
  EXPECT_EQ(table.text(b), "beta");
  EXPECT_EQ(table.find("alpha"), a);
  EXPECT_EQ(table.find("missing"), kNoName);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_THROW(table.text(99), std::out_of_range);
}

TEST(NameTable, InternBatchMatchesSequentialIntern) {
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) names.push_back("net" + std::to_string(i / 2));
  std::vector<std::string_view> views(names.begin(), names.end());
  std::vector<std::uint32_t> hashes;
  for (const auto view : views) hashes.push_back(name_hash(view));

  NameTable sequential;
  std::vector<NameId> expected;
  for (const auto& name : names) expected.push_back(sequential.intern(name));

  NameTable batched;
  batched.reserve(names.size());
  std::vector<NameId> ids;
  batched.intern_batch(views, hashes, ids);
  EXPECT_EQ(ids, expected);  // same ids, duplicates deduped identically
  EXPECT_EQ(batched.size(), sequential.size());
  for (const NameId id : ids) {
    EXPECT_EQ(batched.text(id), sequential.text(id));
  }
  // A second batch over already-interned names issues nothing new.
  batched.intern_batch(views, hashes, ids);
  EXPECT_EQ(ids, expected);
  EXPECT_EQ(batched.size(), sequential.size());
}

TEST(NameTable, TextViewsSurviveGrowth) {
  NameTable table;
  const NameId first = table.intern("first");
  const std::string_view view = table.text(first);
  for (int i = 0; i < 2000; ++i) table.intern("filler" + std::to_string(i));
  EXPECT_EQ(view, "first");  // arena chunks never move
  EXPECT_EQ(table.text(first), "first");
}

TEST(NameTable, ConcurrentInternIsConsistent) {
  NameTable table;
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  std::vector<std::vector<NameId>> ids(kThreads, std::vector<NameId>(kNames));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        ids[t][i] = table.intern("shared" + std::to_string(i));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kNames));
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(table.text(ids[0][i]), "shared" + std::to_string(i));
  }
}

TEST(NetlistNames, FreshNamesAreUniqueAndStable) {
  Netlist n;
  const auto a = n.add_input("a");
  std::set<std::string> seen{"a"};
  for (int i = 0; i < 20; ++i) {
    const auto g = n.add_gate(GateType::kNot, {a});
    const std::string name{n.name(g)};
    EXPECT_TRUE(seen.insert(name).second) << "duplicate auto-name " << name;
  }
  EXPECT_NO_THROW(n.validate());
}

TEST(NetlistNames, FreshNameDodgesTakenCandidates) {
  // Occupy the names auto-naming would pick ("n2", "n2_") and make sure the
  // generator keeps appending until it finds a free one.
  Netlist n;
  const auto a = n.add_input("n2");
  n.add_input("n2_");
  const auto g = n.add_gate(GateType::kNot, {a});  // id 2 -> wants "n2"
  EXPECT_EQ(n.name(g), "n2__");
  EXPECT_EQ(n.find("n2__"), g);
  EXPECT_NO_THROW(n.validate());
}

TEST(NetlistNames, CopiesShareTableButNotNodes) {
  Netlist a("left");
  const auto x = a.add_input("x");
  a.add_gate(GateType::kNot, {x}, "inv");
  Netlist b = a;
  EXPECT_EQ(a.names().get(), b.names().get());  // one family table
  // Diverge: each copy may take names the other already interned.
  b.add_gate(GateType::kBuf, {x}, "only_b");
  EXPECT_EQ(a.find("only_b"), kNoNode);
  EXPECT_NE(b.find("only_b"), kNoNode);
  a.add_gate(GateType::kBuf, {x}, "only_b");  // same text, different netlist
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
  EXPECT_EQ(a.name_id(a.find("only_b")), b.name_id(b.find("only_b")));
}

TEST(NetlistNames, IdOverloadsMatchStringOverloads) {
  Netlist n;
  const NameId sym = n.names()->intern("driver");
  const auto a = n.add_input(sym);
  EXPECT_EQ(n.find("driver"), a);
  EXPECT_EQ(n.find(sym), a);
  const auto g = n.add_gate(GateType::kNot, {a}, n.names()->intern("g"));
  n.mark_output(g, n.names()->intern("out"));
  EXPECT_EQ(n.output_name(0), "out");
  EXPECT_THROW(n.add_input(sym), std::invalid_argument);  // duplicate
}

TEST(NetlistNames, ForeignNameIdsRejected) {
  // A symbol the netlist's own table never issued must not be accepted
  // (it would otherwise register under an arbitrary name — or resize the
  // name index to a bogus u32).
  Netlist n;
  const auto a = n.add_input("a");
  const NameId foreign = 12345;
  EXPECT_THROW(n.add_input(foreign), std::out_of_range);
  EXPECT_THROW(n.add_gate(GateType::kNot, {a}, foreign), std::out_of_range);
  EXPECT_THROW(n.add_const(true, foreign), std::out_of_range);
  EXPECT_THROW(n.mark_output(a, foreign), std::out_of_range);
}

TEST(NetlistNames, CompactedPreservesNamesForAutoNamedNets) {
  Netlist n("auto");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto live1 = n.add_gate(GateType::kAnd, {a, b});   // auto-named
  n.add_gate(GateType::kNot, {b});                         // dead, auto-named
  const auto live2 = n.add_gate(GateType::kNot, {live1});  // auto-named
  n.mark_output(live2);
  const std::string live1_name{n.name(live1)};
  const std::string live2_name{n.name(live2)};

  const Netlist compact = n.compacted();
  EXPECT_NO_THROW(compact.validate());
  EXPECT_EQ(compact.names().get(), n.names().get());
  EXPECT_NE(compact.find(live1_name), kNoNode);
  EXPECT_EQ(compact.name(compact.find(live1_name)), live1_name);
  EXPECT_EQ(compact.output_name(0), live2_name);

  // And the compacted net still round-trips through .bench text.
  const Netlist reparsed = bench::parse(bench::write(compact), "rt");
  EXPECT_NO_THROW(reparsed.validate());
  const Simulator sim_a(compact);
  const Simulator sim_b(reparsed);
  EXPECT_TRUE(Simulator::equivalent_exhaustive(sim_a, {}, sim_b, {}));
}

TEST(NetlistNames, CollisionProneNamesSurviveCompactAndRoundTrip) {
  // "n5" is exactly what auto-naming would assign to node id 5; make sure a
  // user-provided n5 plus generated names coexist through every rebuild.
  Netlist n("clash");
  const auto a = n.add_input("a");          // id 0
  const auto b = n.add_input("n5");         // id 1
  const auto g1 = n.add_gate(GateType::kAnd, {a, b}, "n3");  // id 2
  const auto g2 = n.add_gate(GateType::kOr, {g1, b});  // id 3 -> "n3" taken
  EXPECT_EQ(n.name(g2), "n3_");
  const auto g3 = n.add_gate(GateType::kNot, {g2});    // id 4 -> "n4"
  EXPECT_EQ(n.name(g3), "n4");
  const auto g4 = n.add_gate(GateType::kNot, {g3});    // id 5 -> "n5" taken
  EXPECT_EQ(n.name(g4), "n5_");
  n.mark_output(g4, "y");
  EXPECT_NO_THROW(n.validate());

  const Netlist compact = n.compacted();
  EXPECT_NO_THROW(compact.validate());
  EXPECT_EQ(compact.name(compact.find("n5_")), "n5_");

  const Netlist reparsed = bench::parse(bench::write(compact), "rt");
  EXPECT_NO_THROW(reparsed.validate());
  EXPECT_NE(reparsed.find("n5"), kNoNode);
  EXPECT_NE(reparsed.find("n5_"), kNoNode);
  const Simulator sim_a(compact);
  const Simulator sim_b(reparsed);
  EXPECT_TRUE(Simulator::equivalent_exhaustive(sim_a, {}, sim_b, {}));
}

}  // namespace
}  // namespace autolock::netlist
