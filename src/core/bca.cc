#include "core/bca.h"

#include <algorithm>

#include "util/logging.h"

namespace rtr::core {

Bca::Bca(const Graph& g, const Query& query, double alpha, QueryWorkspace& ws)
    : graph_(g), alpha_(alpha), ws_(&ws) {
  CHECK_GT(alpha, 0.0);
  CHECK_LT(alpha, 1.0);
  CHECK(!query.empty());
  CHECK_EQ(ws_->num_nodes(), g.num_nodes());
  double mass = 1.0 / static_cast<double>(query.size());
  for (NodeId q : query) {
    CHECK_LT(q, g.num_nodes());
    AddResidual(q, mass);
  }
}

double Bca::Benefit(NodeId v) const {
  size_t degree = std::max<size_t>(graph_.out_degree(v), 1);
  return ws_->mu[v] / static_cast<double>(degree);
}

void Bca::AddResidual(NodeId v, double amount) {
  double& residual = ws_->mu[v];
  if (residual == 0.0) ws_->mu_touched.push_back(v);
  residual += amount;
  total_residual_ += amount;
  ws_->benefit_heap.Update(v, Benefit(v));
}

void Bca::Process(NodeId v) {
  DCHECK_LT(v, graph_.num_nodes());
  double residual = ws_->mu[v];
  if (residual <= 0.0) return;
  ws_->mu[v] = 0.0;
  ws_->benefit_heap.Remove(v);
  total_residual_ -= residual;

  ws_->rho[v] += alpha_ * residual;
  if (!ws_->bca_in_seen[v]) {
    ws_->bca_in_seen[v] = 1;
    ws_->bca_seen.push_back(v);
  }
  // Hot loop: streams only the (target, prob) columns.
  double spread = (1.0 - alpha_) * residual;
  auto targets = graph_.out_targets(v);
  auto probs = graph_.out_probs(v);
  for (size_t i = 0; i < targets.size(); ++i) {
    AddResidual(targets[i], spread * probs[i]);
  }
}

int Bca::ProcessBest(int m) {
  CHECK_GT(m, 0);
  // The heap is exact (one entry per node, re-keyed in place), so the top
  // is always the true best benefit and every pop is productive.
  int processed = 0;
  while (processed < m && !ws_->benefit_heap.empty()) {
    Process(ws_->benefit_heap.top());
    ++processed;
  }
  return processed;
}

double Bca::MaxResidual() const {
  double max_mu = 0.0;
  for (NodeId v : ws_->mu_touched) max_mu = std::max(max_mu, ws_->mu[v]);
  return max_mu;
}

double Bca::UnseenUpperBound() const {
  // Eq. 19: alpha/(2-alpha) * max_u mu(u) + (1-alpha)/(2-alpha) * sum_u mu(u).
  double max_mu = MaxResidual();
  return (alpha_ * max_mu + (1.0 - alpha_) * total_residual_) /
         (2.0 - alpha_);
}

}  // namespace rtr::core
