#include "core/layer_norm.hpp"

#include <cmath>

namespace lightridge {

void
LayerNormLayer::forwardInPlace(Field &u, bool training,
                               PropagationWorkspace &)
{
    if (!training) {
        active_ = false;
        return;
    }
    const std::size_t n = u.size();
    Complex mean{0, 0};
    if (subtract_mean_) {
        for (std::size_t i = 0; i < n; ++i)
            mean += u[i];
        mean /= static_cast<Real>(n);
    }

    Real var = 0;
    for (std::size_t i = 0; i < n; ++i)
        var += std::norm(u[i] - mean);
    var /= static_cast<Real>(n);

    cached_sigma_ = std::sqrt(var + eps_);
    ensureFieldShape(cached_y_, u.rows(), u.cols());
    for (std::size_t i = 0; i < n; ++i) {
        Complex y = (u[i] - mean) / cached_sigma_;
        cached_y_[i] = y;
        u[i] = y;
    }
    active_ = true;
}

void
LayerNormLayer::backwardInPlace(Field &g, PropagationWorkspace &)
{
    if (!active_)
        return;
    // Wirtinger adjoint. Mean-subtracting mode (y = (x - mu)/sigma):
    //   G_x = (1/sigma) * (G_y - S/N - rho * y / N),
    // RMS mode (y = x/sigma, sigma^2 = mean|x|^2):
    //   G_x = (1/sigma) * (G_y - rho * y / N),
    // with S = sum(G_y) and rho = Re(sum conj(G_y) * y).
    const std::size_t n = g.size();
    Complex s{0, 0};
    Real rho = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (subtract_mean_)
            s += g[i];
        rho += std::real(std::conj(g[i]) * cached_y_[i]);
    }
    const Real inv_n = Real(1) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i)
        g[i] = (g[i] - s * inv_n - rho * cached_y_[i] * inv_n) /
               cached_sigma_;
}

Json
LayerNormLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["eps"] = Json(eps_);
    j["subtract_mean"] = Json(subtract_mean_);
    return j;
}

} // namespace lightridge
