// Lock-order bad fixture, cross-TU: Ledger::post calls append_entry()
// with ledger_mutex_ held, and append_entry takes journal_mutex_
// (journal.cpp), so ledger_mutex_ -> journal_mutex_. journal.cpp makes
// the reverse edge the same way. Neither TU holds two mutexes at once on
// its own: only the call facts, joined across both files, close the
// cycle.
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class LockGuard {
 public:
  explicit LockGuard(Mutex &m);
  ~LockGuard();
};
}  // namespace kc::compat

namespace kc {

void append_entry();

class Ledger {
 public:
  void post();
  void settle();

 private:
  compat::Mutex ledger_mutex_;
  int balance_ = 0;
};

void Ledger::post() {
  compat::LockGuard lock(ledger_mutex_);
  balance_ += 1;
  append_entry();
}

void Ledger::settle() {
  compat::LockGuard lock(ledger_mutex_);
  balance_ = 0;
}

}  // namespace kc
