"""Shared word lists for the synthetic text universe.

Three code paths must agree on what "toxic vocabulary" means — the platform
text generator (which *emits* comments with a latent toxicity), the
dictionary scorer, and the simulated Perspective models (which *recover*
toxicity from text).  This module is the single source of truth: benign
vocabulary, mild-profanity/"offensive" vocabulary, ad-hominem attack
phrases, and the synthetic hate lexicon (imported from
:mod:`repro.nlp.dictionary`).

The offensive and attack vocabularies are intentionally mild, real English;
the hate lexicon is synthetic pseudo-words (see the dictionary module's
docstring for the substitution rationale).
"""

from __future__ import annotations

from repro.nlp.dictionary import hate_vocab

__all__ = [
    "ATTACK_PHRASES",
    "BENIGN_VOCAB",
    "OBSCENE_VOCAB",
    "OFFENSIVE_VOCAB",
    "RUDE_VOCAB",
    "hate_vocab",
]

BENIGN_VOCAB: tuple[str, ...] = (
    "the", "a", "an", "this", "that", "these", "those", "is", "was", "are",
    "were", "be", "been", "have", "has", "had", "do", "does", "did", "will",
    "would", "can", "could", "should", "may", "might", "and", "or", "but",
    "because", "so", "if", "when", "while", "then", "there", "here", "now",
    "today", "article", "video", "news", "story", "report", "comment",
    "thread", "page", "site", "link", "media", "press", "journalist",
    "writer", "author", "reader", "viewer", "people", "person", "user",
    "government", "country", "nation", "state", "city", "world", "internet",
    "platform", "speech", "free", "freedom", "right", "rights", "truth",
    "fact", "facts", "opinion", "view", "point", "idea", "thought",
    "think", "believe", "know", "understand", "agree", "disagree", "read",
    "watch", "see", "hear", "say", "said", "tell", "told", "write", "wrote",
    "good", "great", "interesting", "important", "real", "true", "false",
    "wrong", "right", "new", "old", "big", "small", "long", "short",
    "first", "last", "many", "much", "more", "most", "some", "any", "all",
    "every", "other", "another", "same", "different", "year", "month",
    "week", "day", "time", "way", "thing", "things", "work", "works",
    "money", "business", "market", "economy", "policy", "election", "vote",
    "party", "law", "court", "judge", "police", "school", "family", "home",
    "question", "answer", "problem", "issue", "reason", "result", "change",
    "history", "future", "science", "research", "study", "evidence",
)

OFFENSIVE_VOCAB: tuple[str, ...] = (
    "idiot", "idiots", "moron", "morons", "stupid", "dumb", "dumbass",
    "fool", "fools", "clown", "clowns", "loser", "losers", "pathetic",
    "garbage", "trash", "scum", "filth", "disgusting", "worthless",
    "braindead", "imbecile", "cretin", "degenerate", "sleazy", "slimy",
    "crooked", "corrupt", "liar", "liars", "lying", "fraud", "frauds",
    "sheep", "sheeple", "coward", "cowards", "traitor", "traitors",
    "crap", "bullcrap", "damn", "hell", "sucks", "awful", "terrible",
)

OBSCENE_VOCAB: tuple[str, ...] = (
    "crap", "damn", "hell", "ass", "arse", "piss", "bloody", "bastard",
    "bollocks", "screw", "screwed", "freaking", "frigging", "sod",
)

RUDE_VOCAB: tuple[str, ...] = (
    "nonsense", "rubbish", "fake", "propaganda", "shill", "shills",
    "brainwashed", "wake", "sheeple", "paid", "bought", "censored",
    "censorship", "lies", "hoax", "joke", "laughable", "ridiculous",
    "absurd", "disgrace", "shameful", "embarrassing", "insane", "crazy",
    "delusional", "blind", "ignorant", "clueless", "hopeless",
)

ATTACK_PHRASES: tuple[str, ...] = (
    "the author is a",
    "whoever wrote this is a",
    "this journalist is a",
    "the writer must be a",
    "typical hack writer",
    "this so called reporter is a",
    "the person who made this is a",
    "fire this author",
    "the author should be ashamed",
    "written by a complete",
)
