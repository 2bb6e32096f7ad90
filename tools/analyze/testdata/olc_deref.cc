// Fixture: validate-before-use (DESIGN.md §15). Frame bytes read between
// OptimisticBegin/FetchOptimistic and the covering Validate may be torn:
// they are read only through the checked reader (NodeView over InPlace),
// and nothing read is returned, or followed to another page, before a
// Validate/Revalidate covers it.
bool DerefInsideWindow(Latch& l, PageHandle& h) {
  uint64_t w = l.OptimisticBegin();
  char c = h.data()[0];  // EXPECT-FINDING: olc-deref
  return l.Validate(w) && c != 0;
}

bool ValidateThenUse(Latch& l, PageHandle& h, char* out) {
  uint64_t w = l.OptimisticBegin();
  if (!l.Validate(w)) return false;
  return h.data()[0] != 0;
}

bool CalleeValidates(Latch& l, uint64_t w, char* out) {
  return l.Validate(w);
}

bool WindowClosedByCallee(Latch& l, PageHandle& h, char* out) {
  uint64_t w = l.OptimisticBegin();
  if (!CalleeValidates(l, w, out)) return false;
  return out.data()[0] != 0;
}

// The in-place descent's shape: read a page, open the next page's window,
// revalidate the page the pointer came from, only then read the next.
Status InPlaceSearch(BufferPool* pool, const Slice& key, std::string* v) {
  EpochGuard epoch;
  OptimisticPage cur;
  if (!pool->FetchOptimistic(kRoot, &cur)) return Status::Busy("cold");
  for (;;) {
    NodeView node(pool->InPlace(cur));
    const PageId next = ChildOf(node, key);
    OptimisticPage nxt;
    const bool resident = pool->FetchOptimistic(next, &nxt);
    if (!pool->Revalidate(cur)) return Status::Busy("torn");
    if (!resident) return Status::Busy("cold");
    cur = nxt;
  }
}

Status ValueBeforeRevalidate(BufferPool* pool, const Slice& key,
                             std::string* v) {
  EpochGuard epoch;
  OptimisticPage leaf;
  if (!pool->FetchOptimistic(kRoot, &leaf)) return Status::Busy("cold");
  NodeView node(pool->InPlace(leaf));
  v->assign(ValueOf(node, key));
  return Status::OK();  // EXPECT-FINDING: olc-deref
}  // EXPECT-FINDING: olc-deref (the section ends unvalidated too)

Status FollowBeforeRevalidate(BufferPool* pool, const Slice& key) {
  EpochGuard epoch;
  OptimisticPage cur, nxt;
  if (!pool->FetchOptimistic(kRoot, &cur)) return Status::Busy("cold");
  NodeView node(pool->InPlace(cur));
  const bool resident = pool->FetchOptimistic(ChildOf(node, key), &nxt);
  NodeView child(pool->InPlace(nxt));  // EXPECT-FINDING: olc-deref
  const bool ok = pool->Revalidate(cur) && pool->Revalidate(nxt);
  return resident && ok ? Status::OK() : Status::Busy("");
}

void RawInPlace(BufferPool* pool, OptimisticPage* page) {
  EpochGuard epoch;
  Use(pool->InPlace(*page));  // EXPECT-FINDING: olc-deref
}  // EXPECT-FINDING: olc-deref (the section ends unvalidated too)
