// Lock-order good fixture, cross-TU: Journal::rotate releases
// journal_mutex_ before it calls settle(), which takes ledger_mutex_
// (ledger.cpp), so the call adds no edge.
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class MutexLock {
 public:
  explicit MutexLock(Mutex &m);
  ~MutexLock();
  void lock();
  void unlock();
};
}  // namespace kc::compat

namespace kc {

void settle();

class Journal {
 public:
  void append_entry();
  void rotate();

 private:
  compat::Mutex journal_mutex_;
  int entries_ = 0;
};

void Journal::append_entry() {
  compat::MutexLock lock(journal_mutex_);
  entries_ += 1;
}

void Journal::rotate() {
  compat::MutexLock lock(journal_mutex_);
  entries_ = 0;
  lock.unlock();
  settle();
}

}  // namespace kc
