// Time travel: the TSB-tree (paper §2.2.2, Figure 1) as a versioned
// key-value store. Every Put creates a new version; queries can ask for the
// state "as of" any past time an open snapshot still covers. Old versions
// migrate to historical nodes via time splits, reachable through history
// sibling pointers, without slowing down current-time access.

#include <cstdio>
#include <memory>
#include <vector>

#include "db/database.h"
#include "env/sim_env.h"
#include "tsb/tsb_tree.h"

using namespace pitree;

int main() {
  SimEnv env;
  Options options;
  std::unique_ptr<Database> db;
  if (!Database::Open(options, &env, "timetravel", &db).ok()) return 1;
  TsbTree* prices = nullptr;
  if (!db->CreateTsbIndex("prices", &prices).ok()) return 1;
  // History is kept back to the oldest open snapshot: holding one from
  // before the first quote keeps every day's prices reachable.
  auto archive = db->BeginSnapshot();

  // A price feed: each day every symbol gets a new quote.
  const char* symbols[] = {"copper", "gold", "silver", "tin"};
  std::vector<TsbTime> day_stamp;
  for (int day = 0; day < 200; ++day) {
    TsbTime stamp = prices->Now();
    day_stamp.push_back(stamp);
    for (int s = 0; s < 4; ++s) {
      Transaction* txn = db->Begin();
      char quote[32];
      snprintf(quote, sizeof(quote), "%d.%02d", 100 + day + s * 7, day % 100);
      // Pad so nodes fill and time splits actually happen.
      std::string padded = std::string(quote) + std::string(180, ' ');
      if (prices->Put(txn, symbols[s], padded, prices->Now()).ok()) {
        db->Commit(txn).ok();
      } else {
        db->Abort(txn).ok();
      }
    }
  }
  printf("recorded 200 days of quotes for 4 symbols\n");
  printf("time splits: %llu (history nodes created), key splits: %llu\n",
         (unsigned long long)prices->stats().time_splits.load(),
         (unsigned long long)prices->stats().key_splits.load());

  // Current price.
  Transaction* txn = db->Begin();
  std::string quote;
  prices->Get(txn, "gold", &quote).ok();
  printf("\ngold today:   %s\n", quote.substr(0, 6).c_str());

  // Time travel: what was gold on day 10? day 100?
  prices->GetAsOf(txn, "gold", day_stamp[10] + 100, &quote).ok();
  printf("gold, day 10: %s\n", quote.substr(0, 6).c_str());
  prices->GetAsOf(txn, "gold", day_stamp[100] + 100, &quote).ok();
  printf("gold, day 100: %s\n", quote.substr(0, 6).c_str());
  db->Commit(txn).ok();

  // Full audit trail of one symbol.
  txn = db->Begin();
  std::vector<TsbVersion> history;
  prices->History(txn, "tin", &history).ok();
  db->Commit(txn).ok();
  printf("\ntin has %zu recorded versions; last 3:\n", history.size());
  for (size_t i = 0; i < 3 && i < history.size(); ++i) {
    printf("  t=%llu  %s\n", (unsigned long long)history[i].time,
           history[i].value.substr(0, 6).c_str());
  }

  printf("\nhistory chain hops used by the queries above: %llu\n",
         (unsigned long long)prices->stats().history_hops.load());
  std::string report;
  Status wf = prices->CheckWellFormed(&report);
  printf("TSB-tree well-formed: %s\n", wf.ok() ? "yes" : report.c_str());
  return wf.ok() ? 0 : 1;
}
