#include "persist/disk.hpp"

#include <utility>

namespace paso::persist {

Cost SimDisk::charge_write(std::size_t bytes) {
  ++writes_;
  bytes_written_ += bytes;
  const Cost cost = model_.io(bytes);
  total_cost_ += cost;
  return cost;
}

Cost SimDisk::charge_read(std::size_t bytes) {
  ++reads_;
  bytes_read_ += bytes;
  const Cost cost = model_.io(bytes);
  total_cost_ += cost;
  return cost;
}

Cost SimDisk::append(const std::string& file,
                     const std::vector<std::uint8_t>& bytes) {
  auto& contents = files_[file];
  contents.insert(contents.end(), bytes.begin(), bytes.end());
  total_bytes_ += bytes.size();
  return charge_write(bytes.size());
}

Cost SimDisk::overwrite(const std::string& file,
                        std::vector<std::uint8_t> bytes) {
  const std::size_t n = bytes.size();
  std::vector<std::uint8_t>& contents = files_[file];
  total_bytes_ += n;
  total_bytes_ -= contents.size();
  contents = std::move(bytes);
  return charge_write(n);
}

Cost SimDisk::read(const std::string& file, std::vector<std::uint8_t>& out) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    out.clear();
    return 0;
  }
  out = it->second;
  return charge_read(out.size());
}

Cost SimDisk::truncate(const std::string& file, std::size_t size) {
  auto it = files_.find(file);
  if (it == files_.end() || it->second.size() <= size) return 0;
  total_bytes_ -= it->second.size() - size;
  it->second.resize(size);
  return charge_write(0);  // a metadata write: seek, no payload
}

void SimDisk::remove(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  total_bytes_ -= it->second.size();
  files_.erase(it);
}

std::size_t SimDisk::size(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size();
}

const std::vector<std::uint8_t>* SimDisk::peek(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

bool SimDisk::chop(const std::string& file, std::size_t n) {
  auto it = files_.find(file);
  if (it == files_.end() || it->second.empty() || n == 0) return false;
  const std::size_t drop = std::min(n, it->second.size());
  total_bytes_ -= drop;
  it->second.resize(it->second.size() - drop);
  return true;
}

bool SimDisk::flip(const std::string& file, std::size_t offset) {
  auto it = files_.find(file);
  if (it == files_.end() || it->second.empty()) return false;
  it->second[offset % it->second.size()] ^= 0x5A;
  return true;
}

}  // namespace paso::persist
