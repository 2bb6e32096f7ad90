// Figure 1 reproduction — the TSB-tree's split behavior: "In the Time-Split
// B-tree, new current nodes contain copies of old history node pointers and
// old key pointers. New historic nodes contain copies of old history
// pointers. Current nodes are responsible for all previous time through
// their historical pointers and all higher key ranges through their key
// (side) pointers."
//
// The script forces the sequence the figure depicts — updates causing a
// time split, then inserts causing a key split — and prints the resulting
// node partition, showing the history chains and key sibling order. It then
// validates the figure's responsibility claim with as-of probes, and
// measures version-query cost vs. history depth.

#include <set>
#include <sstream>

#include "bench_util.h"
#include "common/random.h"
#include "tsb/tsb_tree.h"

namespace pitree {
namespace bench {
namespace {

void Commit1(Database* db, std::function<Status(Transaction*)> fn) {
  Transaction* txn = db->Begin();
  Status s = fn(txn);
  if (s.ok()) {
    db->Commit(txn).ok();
  } else {
    db->Abort(txn).ok();
  }
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main() {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  using pitree::Transaction;
  using pitree::TsbTime;
  using pitree::TsbTree;

  printf("Figure 1: TSB-tree — time splits create history nodes; key splits "
         "copy history pointers\n\n");

  BenchDb bdb;
  TsbTree* tsb = nullptr;
  bdb.db->CreateTsbIndex("versions", &tsb).ok();
  // The tree keeps history back to the oldest open snapshot only; the
  // figure's chains and the as-of probes below need all of it, so a
  // snapshot opened before the first write pins it.
  auto keep_history = bdb.db->BeginSnapshot();

  // Stage 1: repeated updates of a small key set -> dead versions pile up
  // -> the split policy time-splits, producing history nodes.
  std::string value(250, 'v');
  std::vector<TsbTime> round_time;
  for (int round = 0; round < 120; ++round) {
    round_time.push_back(tsb->Now());
    for (int k = 0; k < 6; ++k) {
      Commit1(bdb.db.get(), [&](Transaction* txn) {
        return tsb->Put(txn, "account" + std::to_string(k),
                        value + std::to_string(round), tsb->Now());
      });
    }
  }
  printf("after update-heavy stage: %llu time splits, %llu key splits\n",
         (unsigned long long)tsb->stats().time_splits.load(),
         (unsigned long long)tsb->stats().key_splits.load());

  // Stage 2: many fresh keys -> key splits; new current nodes copy the
  // history pointer (lower-right corner behavior of the figure).
  for (int i = 0; i < 400; ++i) {
    Commit1(bdb.db.get(), [&](Transaction* txn) {
      return tsb->Put(txn, "account" + std::to_string(100 + i), value,
                      tsb->Now());
    });
  }
  printf("after insert-heavy stage: %llu time splits, %llu key splits\n\n",
         (unsigned long long)tsb->stats().time_splits.load(),
         (unsigned long long)tsb->stats().key_splits.load());

  std::string dump;
  tsb->DumpStructure(&dump).ok();
  printf("node partition (current level, left to right, with history "
         "chains):\n%s\n", dump.c_str());
  // A history node whose key range is wider than the current node that
  // reaches it is shared with a key-split sibling: a prune cuts it from
  // one sibling but leaves it allocated.
  std::set<std::string> history, shared;
  std::string current_keys;
  std::istringstream lines(dump);
  for (std::string line; std::getline(lines, line);) {
    const std::string keys = line.substr(line.find(" keys ") + 6);
    if (line.rfind("current node", 0) == 0) {
      current_keys = keys.substr(0, keys.find(" entries"));
    } else if (line.find("history node") != std::string::npos) {
      const std::string id = line.substr(line.find("history node") + 13);
      const std::string node = id.substr(0, id.find(' '));
      history.insert(node);
      if (keys != current_keys) shared.insert(node);
    }
  }
  printf("history nodes: %zu, shared by key-split siblings: %zu\n\n",
         history.size(), shared.size());

  // Figure's responsibility claim: through its history pointer a current
  // node answers for ALL previous time of its key space.
  printf("as-of probes through history chains:\n");
  for (int round : {2, 30, 60, 115}) {
    Transaction* txn = bdb.db->Begin();
    std::string v;
    pitree::Status s = tsb->GetAsOf(txn, "account3", round_time[round] + 50,
                                    &v);
    bdb.db->Commit(txn).ok();
    printf("  account3 as of round %3d -> %s (suffix %s)\n", round,
           s.ToString().c_str(),
           s.ok() ? v.substr(250).c_str() : "-");
  }
  printf("history hops performed: %llu\n\n",
         (unsigned long long)tsb->stats().history_hops.load());

  // Version-query cost vs. history depth.
  printf("version query cost vs age:\n");
  PrintRow({"as-of round", "us/query"}, {14, 12});
  for (int round : {115, 90, 60, 30, 2}) {
    Timer t;
    const int kQ = 2000;
    for (int q = 0; q < kQ; ++q) {
      Transaction* txn = bdb.db->Begin();
      std::string v;
      tsb->GetAsOf(txn, "account" + std::to_string(q % 6),
                   round_time[round] + 50, &v)
          .ok();
      bdb.db->Commit(txn).ok();
    }
    PrintRow({FmtU(round), Fmt(t.ElapsedSeconds() * 1e6 / kQ, 2)}, {14, 12});
  }
  printf("\nExpected shape: older as-of times cost more (longer history "
         "chains), current\nqueries stay flat — history never burdens the "
         "current search path.\n");
  return 0;
}
