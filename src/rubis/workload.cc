#include "rubis/workload.h"

#include <algorithm>
#include <map>

#include "parser/statement_parser.h"

namespace nose::rubis {

namespace {

/// Statement texts, keyed by name. Statements are shared between
/// transactions (e.g. view_item appears in ViewItem, BuyNow, PutBid,
/// PutComment).
const std::vector<std::pair<std::string, std::string>>& StatementTexts() {
  static const auto* kStatements =
      new std::vector<std::pair<std::string, std::string>>{
          {"browse_categories",
           "SELECT Category.CategoryName FROM Category "
           "WHERE Category.Dummy = 1"},
          {"search_items_category",
           "SELECT Item.ItemName, Item.ItemInitialPrice, Item.ItemMaxBid, "
           "Item.ItemEndDate FROM Item.Category "
           "WHERE Category.CategoryID = ?category "
           "AND Item.ItemEndDate >= ?now"},
          {"view_item", "SELECT Item.* FROM Item WHERE Item.ItemID = ?item"},
          {"view_item_seller",
           "SELECT User.UserName, User.UserRating FROM User.Selling "
           "WHERE Item.ItemID = ?item"},
          {"bid_history",
           "SELECT User.UserName, Bid.BidQty, Bid.BidPrice, Bid.BidDate "
           "FROM User.Bids.Item WHERE Item.ItemID = ?item"},
          {"user_info", "SELECT User.* FROM User WHERE User.UserID = ?user"},
          {"user_comments",
           "SELECT Comment.CommentText, Comment.CommentRating, "
           "Comment.CommentDate FROM Comment.ToUser "
           "WHERE User.UserID = ?user"},
          {"comment_author",
           "SELECT User.UserName FROM User.CommentsWritten "
           "WHERE Comment.CommentID = ?comment"},
          {"store_buynow",
           "INSERT INTO BuyNow SET BuyNowID = ?buynowid, BuyNowQty = ?qty, "
           "BuyNowDate = ?now AND CONNECT TO Buyer(?user), Item(?item)"},
          {"update_item_qty",
           "UPDATE Item SET ItemQuantity = ?qty WHERE Item.ItemID = ?item"},
          {"store_bid",
           "INSERT INTO Bid SET BidID = ?bidid, BidQty = ?qty, "
           "BidPrice = ?price, BidDate = ?now "
           "AND CONNECT TO Bidder(?user), Item(?item)"},
          {"update_item_bids",
           "UPDATE Item SET ItemNbOfBids = ?nbbids, ItemMaxBid = ?price "
           "WHERE Item.ItemID = ?item"},
          {"store_comment",
           "INSERT INTO Comment SET CommentID = ?commentid, "
           "CommentRating = ?rating, CommentDate = ?now, "
           "CommentText = ?text "
           "AND CONNECT TO FromUser(?user), ToUser(?touser)"},
          {"update_user_rating",
           "UPDATE User SET UserRating = ?rating WHERE User.UserID = ?touser"},
          {"aboutme_items",
           "SELECT Item.ItemName, Item.ItemEndDate, Item.ItemMaxBid "
           "FROM Item.Seller WHERE User.UserID = ?user"},
          {"aboutme_bids",
           "SELECT Item.ItemName, Bid.BidPrice, Bid.BidDate "
           "FROM Item.ItemBids.Bidder WHERE User.UserID = ?user"},
          {"aboutme_buynows",
           "SELECT Item.ItemName, BuyNow.BuyNowDate "
           "FROM Item.ItemBuyNows.Buyer WHERE User.UserID = ?user"},
          {"aboutme_olditems",
           "SELECT OldItem.OldItemName, OldItem.OldItemMaxBid "
           "FROM OldItem.OldSeller WHERE User.UserID = ?user"},
          {"register_item",
           "INSERT INTO Item SET ItemID = ?itemid, ItemName = ?name, "
           "ItemDescription = ?text, ItemInitialPrice = ?price, "
           "ItemQuantity = ?qty, ItemReservePrice = ?price2, "
           "ItemBuyNowPrice = ?price3, ItemNbOfBids = 0, ItemMaxBid = 0.0, "
           "ItemStartDate = ?now, ItemEndDate = ?end "
           "AND CONNECT TO Seller(?user), Category(?category)"},
          {"register_user",
           "INSERT INTO User SET UserID = ?userid, UserName = ?name, "
           "UserEmail = ?text, UserPassword = ?text2, UserRating = 0, "
           "UserBalance = 0.0, UserCreationDate = ?now "
           "AND CONNECT TO Region(?region)"},
      };
  return *kStatements;
}

}  // namespace

const std::vector<Transaction>& Transactions() {
  // Bidding weights approximate the RUBiS default transition mix; browsing
  // weights cover the read-only subset. Absolute values are immaterial —
  // only ratios matter.
  static const auto* kTransactions = new std::vector<Transaction>{
      {"BrowseCategories", {"browse_categories"}, 7.0, 12.0, false},
      {"ViewBidHistory", {"bid_history"}, 3.0, 5.0, false},
      {"ViewItem", {"view_item", "view_item_seller"}, 22.0, 30.0, false},
      {"SearchItemsByCategory", {"search_items_category"}, 22.0, 35.0, false},
      {"ViewUserInfo", {"user_info", "user_comments", "comment_author"}, 4.0,
       8.0, false},
      {"BuyNow", {"user_info", "view_item"}, 3.0, 3.0, false},
      {"StoreBuyNow", {"store_buynow", "update_item_qty"}, 1.5, 0.0, true},
      {"PutBid", {"view_item", "bid_history"}, 8.0, 4.0, false},
      {"StoreBid", {"store_bid", "update_item_bids"}, 6.0, 0.0, true},
      {"PutComment", {"view_item", "user_info"}, 1.0, 1.0, false},
      {"StoreComment", {"store_comment", "update_user_rating"}, 1.0, 0.0,
       true},
      {"AboutMe",
       {"user_info", "aboutme_items", "aboutme_bids", "aboutme_buynows",
        "aboutme_olditems", "user_comments"},
       2.0, 2.0, false},
      {"RegisterItem", {"register_item"}, 1.5, 0.0, true},
      {"RegisterUser", {"register_user"}, 1.0, 0.0, true},
  };
  return *kTransactions;
}

double TransactionWeight(const Transaction& tx, const std::string& mix) {
  if (mix == kBrowsingMix) return tx.browsing_weight;
  if (mix == kBiddingMix) return tx.bidding_weight;
  if (mix == kWrite10xMix) {
    return tx.is_write ? tx.bidding_weight * 10.0 : tx.bidding_weight;
  }
  if (mix == kWrite100xMix) {
    return tx.is_write ? tx.bidding_weight * 100.0 : tx.bidding_weight;
  }
  return 0.0;
}

StatusOr<TransactionSampler> TransactionSampler::ForMix(
    const std::string& mix) {
  TransactionSampler sampler;
  for (const Transaction& tx : Transactions()) {
    const double weight = TransactionWeight(tx, mix);
    if (weight <= 0.0) continue;
    sampler.total_ += weight;
    sampler.entries_.push_back({&tx, weight, sampler.total_});
  }
  if (sampler.entries_.empty()) {
    return Status::InvalidArgument("mix " + mix + " weights no transaction");
  }
  return sampler;
}

const Transaction& TransactionSampler::Pick(Rng* rng) const {
  const double pick = rng->NextDouble() * total_;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pick,
      [](const Entry& e, double value) { return e.cumulative < value; });
  if (it == entries_.end()) --it;
  return *it->tx;
}

StatusOr<std::unique_ptr<Workload>> MakeWorkload(const EntityGraph& graph) {
  auto workload = std::make_unique<Workload>(&graph);
  constexpr const char* kMixes[] = {kBiddingMix, kBrowsingMix, kWrite10xMix,
                                    kWrite100xMix};

  // Statement weight per mix = sum of weights of transactions using it.
  std::map<std::string, std::map<std::string, double>> weights;
  for (const Transaction& tx : Transactions()) {
    for (const std::string& stmt : tx.statements) {
      for (const char* mix : kMixes) {
        weights[stmt][mix] += TransactionWeight(tx, mix);
      }
    }
  }

  for (const auto& [name, text] : StatementTexts()) {
    NOSE_ASSIGN_OR_RETURN(ParsedStatement stmt, ParseStatement(graph, text));
    const auto& w = weights.at(name);
    if (std::holds_alternative<Query>(stmt)) {
      NOSE_RETURN_IF_ERROR(workload->AddQuery(
          name, std::get<Query>(std::move(stmt)), w.at(kBiddingMix)));
    } else {
      NOSE_RETURN_IF_ERROR(workload->AddUpdate(
          name, std::get<Update>(std::move(stmt)), w.at(kBiddingMix)));
    }
    for (const char* mix : {kBrowsingMix, kWrite10xMix, kWrite100xMix}) {
      NOSE_RETURN_IF_ERROR(workload->SetWeight(name, mix, w.at(mix)));
    }
  }
  return workload;
}

}  // namespace nose::rubis
