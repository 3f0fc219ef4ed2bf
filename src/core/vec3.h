// Minimal 3-vector for atomic coordinates; shared by chem, dock and data.
#pragma once

#include <cmath>

namespace df::core {

struct Vec3 {
  float x = 0.0f, y = 0.0f, z = 0.0f;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x; y += o.y; z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x; y -= o.y; z -= o.z;
    return *this;
  }

  float dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  float norm2() const { return dot(*this); }
  float norm() const { return std::sqrt(norm2()); }
  Vec3 normalized() const {
    const float n = norm();
    return n > 1e-12f ? (*this) * (1.0f / n) : Vec3{1, 0, 0};
  }
  float dist(const Vec3& o) const { return (*this - o).norm(); }
};

/// Rotate `v` around unit axis `k` by the angle whose cosine is `c` and
/// sine is `s` (Rodrigues).
inline Vec3 rotate_axis_angle(const Vec3& v, const Vec3& k, float c, float s) {
  return v * c + k.cross(v) * s + k * (k.dot(v) * (1.0f - c));
}

/// Rotate `v` around unit axis `k` by angle `theta` (Rodrigues).
inline Vec3 rotate_axis_angle(const Vec3& v, const Vec3& k, float theta) {
  return rotate_axis_angle(v, k, std::cos(theta), std::sin(theta));
}

}  // namespace df::core
