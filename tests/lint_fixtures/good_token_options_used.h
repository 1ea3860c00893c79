// Known-good fixture for lint_options_used: options_user.cc sets every
// TokenManager::Options field, the function-typed one included.
namespace dfs {

class TokenManager {
 public:
  struct Options {
    size_t fanout = 4;
    std::function<bool(HostId)> silent;
  };
};

}  // namespace dfs
