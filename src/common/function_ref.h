#ifndef PITREE_COMMON_FUNCTION_REF_H_
#define PITREE_COMMON_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace pitree {

template <typename Sig>
class FunctionRef;

/// A non-owning reference to a callable, for callbacks that run only while
/// the call that receives them is on the stack. Unlike std::function it
/// never allocates, so hot paths (the optimistic lookup) can take one.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace pitree

#endif  // PITREE_COMMON_FUNCTION_REF_H_
